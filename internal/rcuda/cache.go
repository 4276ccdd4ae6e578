package rcuda

import (
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
)

// Client-side caching of immutable replies. AI-style request loops poll
// cudaGetDeviceProperties and cudaGetDeviceCount on every iteration (to
// size launches, pick shapes); against a remote GPU each poll is a full
// round trip for an answer that cannot change while the session is pinned
// to one daemon. WithBatching therefore enables a per-session cache of
// those replies.
//
// Coherence rule: the cache is valid exactly as long as the connection that
// filled it. Any reconnect — even a reattach to the same durable session —
// invalidates it, because the retry machinery cannot prove the replacement
// connection reached an identical daemon. A broker re-placement or failover
// constructs a fresh Client and therefore starts with an empty cache by
// construction. Stale properties from a previous daemon are impossible.
//
// The same option answers a cudaEventQuery on the event the last successful
// cudaEventSynchronize waited on. That is not a cached status but the reply
// itself: the server answers "recorded instant <= device clock", the
// synchronization advanced the clock to that instant, no clock runs
// backward, and only this session can record its events. It holds until the
// event is recorded again or destroyed, the current device changes (events
// belong to one context) or the connection is replaced; each of those
// forgets it when called, whatever it returns.

// cacheCurrentDevice is the curDev sentinel for "the server-chosen initial
// device": before the first SetDevice the client does not know which device
// index a session-spread server started it on, so its properties are cached
// under this key rather than assumed to be device 0's.
const cacheCurrentDevice = -1

// invalidateCache drops every cached reply; called whenever the connection
// the cache was filled over is replaced.
func (c *Client) invalidateCache() {
	c.devCountOK = false
	c.props = nil
	c.syncedOK = false
}

// answersLocally reports whether a call may be answered without an
// exchange: batching, which turns the cache on, is on and the session is
// neither closed nor lost, so a local answer never hides the error every
// call then fails with.
func (c *Client) answersLocally() bool {
	return c.batching && !c.closed.Load() && !c.lost
}

// cachedDeviceCount serves DeviceCount from the cache, reporting ok=false
// on a miss (or without batching, which leaves the cache off).
func (c *Client) cachedDeviceCount() (int, bool) {
	if !c.answersLocally() || !c.devCountOK {
		return 0, false
	}
	c.cstats.CacheHits.Add(1)
	return c.devCount, true
}

// storeDeviceCount fills the device-count cache after a server reply.
func (c *Client) storeDeviceCount(n int) {
	if !c.batching {
		return
	}
	c.cstats.CacheMisses.Add(1)
	c.devCount = n
	c.devCountOK = true
}

// cachedProperties serves DeviceProperties for the currently selected
// device from the cache.
func (c *Client) cachedProperties() (gpu.Properties, bool) {
	if !c.answersLocally() {
		return gpu.Properties{}, false
	}
	p, ok := c.props[c.curDev]
	if ok {
		c.cstats.CacheHits.Add(1)
	}
	return p, ok
}

// storeProperties fills the properties cache for the currently selected
// device after a server reply.
func (c *Client) storeProperties(p gpu.Properties) {
	if !c.batching {
		return
	}
	c.cstats.CacheMisses.Add(1)
	if c.props == nil {
		c.props = make(map[int]gpu.Properties)
	}
	c.props[c.curDev] = p
}

// eventSettled reports whether EventQuery(e) is answered success locally: e
// is the synchronized event and nothing is pending or deferred — otherwise
// the fold path answers, reporting sticky errors as it always has.
func (c *Client) eventSettled(e cudart.Event) bool {
	if !c.syncedOK || c.synced != e || len(c.pendSubs) > 0 || c.deferredErr != nil || !c.answersLocally() {
		return false
	}
	c.cstats.CacheHits.Add(1)
	return true
}

// forgetEvent drops the synchronized fact about e, for a call that may
// change what a query of e answers.
func (c *Client) forgetEvent(e cudart.Event) {
	if c.synced == e {
		c.syncedOK = false
	}
}
