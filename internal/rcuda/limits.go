package rcuda

import (
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
)

// This file holds the server-hardening ServerOptions and the per-session
// quota arithmetic. The motivating deployment is the paper's Figure 1: one
// GPU server node shared by many remote clients. Without limits a single
// misbehaving client can exhaust the Tesla C1060's 4 GB, hold a handler
// goroutine hostage mid-frame, or abandon durable sessions whose
// allocations survive until daemon shutdown. Each knob below bounds one of
// those failure modes; all of them default to off, preserving the paper's
// original unlimited behavior.

// DefaultCloseGrace bounds how long Close lets in-flight requests finish
// before force-closing their connections. Override with WithCloseGrace.
const DefaultCloseGrace = 5 * time.Second

// WithMaxSessions caps how many sessions may exist at once, attached or
// parked — a parked durable session still pins its device allocations, so
// it counts. Handshakes beyond the cap are refused with a typed
// protocol.CodeServerBusy wire error (ErrServerBusy on the client) unless
// WithAdmissionQueue lets them wait for a freed slot. n <= 0 is unlimited.
func WithMaxSessions(n int) ServerOption {
	return func(s *Server) { s.maxSessions = n }
}

// WithMaxConns caps concurrently served connections. Unlike the session
// cap this is a hard bound with no queueing: the excess connection gets the
// busy rejection immediately and should redial after backoff. n <= 0 is
// unlimited.
func WithMaxConns(n int) ServerOption {
	return func(s *Server) { s.maxConns = n }
}

// WithAdmissionQueue lets up to depth handshakes wait in arrival order for
// a session slot instead of being rejected outright, each for at most
// wait (an accept deadline; <= 0 defaults to one second). Only meaningful
// together with WithMaxSessions.
func WithAdmissionQueue(depth int, wait time.Duration) ServerOption {
	return func(s *Server) {
		s.admitQueueDepth = depth
		s.admitQueueWait = wait
	}
}

// WithSessionMemoryLimit caps the device bytes one session may hold across
// all its per-device contexts, charged at the allocator's granularity
// (gpu.AllocCharge). A cudaMalloc that would breach the cap fails with
// cudaErrorMemoryAllocation — exactly what an exhausted device returns —
// so unmodified applications handle it natively. bytes <= 0 is unlimited.
func WithSessionMemoryLimit(bytes uint64) ServerOption {
	return func(s *Server) { s.sessionMemLimit = bytes }
}

// WithMaxAllocsPerSession caps live allocations per session, bounding
// allocator metadata against a client that mallocs in a loop. Breaches
// fail with cudaErrorMemoryAllocation. n <= 0 is unlimited.
func WithMaxAllocsPerSession(n int) ServerOption {
	return func(s *Server) { s.maxAllocsPerSession = n }
}

// WithRequestDeadline arms the request watchdog: every transport operation
// of a session — including the handshake and each frame of a chunked
// transfer — must complete within d, or the connection is killed with a
// deadline error. A client stalled mid-frame (the faults.KindStall
// scenario) therefore costs a bounded amount of handler time; its durable
// session is parked for reattach instead of leaking the goroutine. The
// deadline rides the transport's own support (TCP read/write deadlines, or
// the simulated pipe's wall-clock bound), so an idle durable client past
// the deadline is parked too — it reattaches transparently on its next
// call when it runs a reconnect policy. d <= 0 disables the watchdog.
func WithRequestDeadline(d time.Duration) ServerOption {
	return func(s *Server) { s.requestDeadline = d }
}

// WithParkedSessionTTL bounds how long a parked durable session survives
// without a reattach before the background garbage collector destroys it
// and reclaims its device memory. This replaces waiting for daemon
// shutdown as the only reclamation point. A reattach after eviction is
// refused with protocol.CodeSessionEvicted. d <= 0 disables the GC
// (parked sessions then live until Close, the original behavior).
func WithParkedSessionTTL(d time.Duration) ServerOption {
	return func(s *Server) { s.parkedTTL = d }
}

// WithCloseGrace sets how long Close lets in-flight requests finish before
// force-closing the stragglers' connections (default DefaultCloseGrace).
// Drain takes an explicit context instead.
func WithCloseGrace(d time.Duration) ServerOption {
	return func(s *Server) { s.closeGrace = d }
}

// sessionMemInUse sums the device bytes the session holds across every
// context it has created — one per device it selected — at allocator
// granularity. Only the session's own goroutine mutates ctxs, so iterating
// it here is race-free.
func (ss *session) sessionMemInUse() uint64 {
	var total uint64
	for _, ctx := range ss.ctxs {
		if ctx != nil {
			total += ctx.OwnedBytes()
		}
	}
	return total
}

// sessionAllocs counts the session's live allocations across its contexts.
func (ss *session) sessionAllocs() int {
	n := 0
	for _, ctx := range ss.ctxs {
		if ctx != nil {
			n += ctx.OwnedCount()
		}
	}
	return n
}

// checkQuota decides whether the session may allocate size more bytes.
// It returns the wire result code to refuse with, or cudart.Success. The
// accounting is derived from the contexts themselves rather than kept in a
// shadow counter, so it cannot drift across setDevice switches, frees, or
// reattaches.
func (s *Server) checkQuota(ss *session, size uint32) cudart.Error {
	if s.sessionMemLimit > 0 && ss.sessionMemInUse()+gpu.AllocCharge(size) > s.sessionMemLimit {
		return cudart.ErrorMemoryAllocation
	}
	if s.maxAllocsPerSession > 0 && ss.sessionAllocs()+1 > s.maxAllocsPerSession {
		return cudart.ErrorMemoryAllocation
	}
	return cudart.Success
}
