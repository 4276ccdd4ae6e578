package gpu

import (
	"fmt"
	"time"
)

// This file implements CUDA streams, asynchronous copies, and events — the
// paper leaves asynchronous transfers "for future work"; this is that
// extension. The device models the Tesla C1060's engine layout: one copy
// (DMA) engine and one compute engine, so one transfer can overlap one
// kernel but transfers do not overlap each other.
//
// Timing model: asynchronous operations do not advance the clock at issue
// time. Each engine and each stream keeps a virtual "busy until" instant;
// an async operation starts at max(now, engine free, stream free) and its
// completion updates both. Synchronization points (stream/device/event
// waits) advance the clock to the relevant completion instant. On a clock
// without AdvanceTo (wall time), async operations degrade to synchronous
// execution — correct, just without modeled overlap.
//
// Functionally, the simulated work is performed immediately at issue time
// (device memory is host-backed and the protocol is in-order per context),
// so results are identical to the synchronous path; only timing differs.

// DefaultStream is CUDA's stream 0: operations on it are synchronous with
// respect to the host.
const DefaultStream uint32 = 0

// advancer is the optional clock capability async timing needs.
type advancer interface{ AdvanceTo(time.Duration) }

// engineKind selects which device engine an async operation occupies.
type engineKind int

const (
	copyEngine engineKind = iota
	execEngine
)

// timeline tracks the busy-until instants of the device engines and
// per-stream in-order queues of one context.
type timeline struct {
	engineDone [2]time.Duration
	streamDone map[uint32]time.Duration
	events     map[uint32]time.Duration
	nextStream uint32
	nextEvent  uint32
}

func newTimeline() *timeline {
	return &timeline{
		streamDone: map[uint32]time.Duration{DefaultStream: 0},
		events:     make(map[uint32]time.Duration),
		nextStream: 1,
		nextEvent:  1,
	}
}

// ErrInvalidStream is returned for operations on unknown streams.
var ErrInvalidStream = fmt.Errorf("gpu: invalid stream")

// ErrInvalidEvent is returned for operations on unknown events.
var ErrInvalidEvent = fmt.Errorf("gpu: invalid event")

// schedule books an async operation of the given cost on an engine and
// stream, returning its completion instant. The caller holds c.mu.
func (c *Context) schedule(eng engineKind, stream uint32, cost time.Duration) (time.Duration, error) {
	return c.scheduleAt(eng, stream, cost, c.dev.cfg.Clock.Now())
}

// scheduleAt books an async operation that cannot start before the given
// instant, returning its completion instant. Unlike schedule it does not
// consult the clock: the chunked-memcpy server books PCIe pushes at each
// chunk's network-arrival stamp while the sending client has already
// advanced the shared clock past it, so "now" would erase exactly the
// overlap being modeled. The caller holds c.mu.
func (c *Context) scheduleAt(eng engineKind, stream uint32, cost, notBefore time.Duration) (time.Duration, error) {
	tl := c.tl
	sdone, ok := tl.streamDone[stream]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrInvalidStream, stream)
	}
	start := notBefore
	if tl.engineDone[eng] > start {
		start = tl.engineDone[eng]
	}
	if sdone > start {
		start = sdone
	}
	if c.dev.cfg.Jitter != nil {
		cost = c.dev.cfg.Jitter.Perturb(cost)
	}
	end := start + cost
	tl.engineDone[eng] = end
	tl.streamDone[stream] = end
	return end, nil
}

// advanceTo moves the clock to t when the clock supports virtual advance;
// otherwise it is a no-op (wall clocks cannot jump).
func (c *Context) advanceTo(t time.Duration) {
	if adv, ok := c.dev.cfg.Clock.(advancer); ok {
		adv.AdvanceTo(t)
	}
}

// asyncCapable reports whether the clock supports deferred completion; when
// it does not, async operations must charge time immediately.
func (c *Context) asyncCapable() bool {
	_, ok := c.dev.cfg.Clock.(advancer)
	return ok
}

// StreamCreate allocates a new stream.
func (c *Context) StreamCreate() (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return 0, err
	}
	id := c.tl.nextStream
	c.tl.nextStream++
	c.tl.streamDone[id] = 0
	return id, nil
}

// StreamDestroy releases a stream after implicitly synchronizing it, as
// cudaStreamDestroy does for pending work.
func (c *Context) StreamDestroy(stream uint32) error {
	if stream == DefaultStream {
		return fmt.Errorf("%w: cannot destroy the default stream", ErrInvalidStream)
	}
	if err := c.StreamSynchronize(stream); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tl.streamDone, stream)
	return nil
}

// StreamSynchronize blocks (advances the clock) until every operation
// issued to the stream has completed.
func (c *Context) StreamSynchronize(stream uint32) error {
	c.mu.Lock()
	if err := c.check(); err != nil {
		c.mu.Unlock()
		return err
	}
	done, ok := c.tl.streamDone[stream]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrInvalidStream, stream)
	}
	c.advanceTo(done)
	return nil
}

// Synchronize advances the clock past every pending operation of this
// context (cudaDeviceSynchronize).
func (c *Context) Synchronize() error {
	c.mu.Lock()
	if err := c.check(); err != nil {
		c.mu.Unlock()
		return err
	}
	var latest time.Duration
	for _, d := range c.tl.streamDone {
		if d > latest {
			latest = d
		}
	}
	for _, d := range c.tl.engineDone {
		if d > latest {
			latest = d
		}
	}
	c.mu.Unlock()
	c.advanceTo(latest)
	return nil
}

// CopyToDeviceAsync performs the copy functionally now and books its PCIe
// time on the copy engine and the stream.
func (c *Context) CopyToDeviceAsync(dst uint32, data []byte, stream uint32) error {
	if stream == DefaultStream || !c.asyncCapable() {
		return c.CopyToDevice(dst, data)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	region, err := c.region(dst, uint32(len(data)))
	if err != nil {
		return err
	}
	copy(region, data)
	_, err = c.schedule(copyEngine, stream, c.dev.PCIeTime(int64(len(data))))
	return err
}

// LaunchAsync executes a kernel on a stream: computation happens now,
// modeled time is booked on the compute engine. Stream 0 falls back to the
// synchronous Launch.
func (c *Context) LaunchAsync(name string, grid, block Dim3, shared uint32, params []byte, stream uint32) error {
	if stream == DefaultStream || !c.asyncCapable() {
		return c.Launch(name, grid, block, shared, params)
	}
	if err := validateLaunch(grid, block); err != nil {
		return err
	}
	k, err := c.kernel(name)
	if err != nil {
		return err
	}
	cost, err := c.execute(k, grid, block, shared, params)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err = c.schedule(execEngine, stream, cost)
	return err
}

// StreamReady reports whether every operation issued to the stream has
// completed by the current virtual instant, without advancing the clock
// (cudaStreamQuery).
func (c *Context) StreamReady(stream uint32) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return false, err
	}
	done, ok := c.tl.streamDone[stream]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrInvalidStream, stream)
	}
	return done <= c.dev.cfg.Clock.Now(), nil
}

// EventReady reports whether an event's recorded work has completed by the
// current virtual instant, without advancing the clock (cudaEventQuery).
func (c *Context) EventReady(event uint32) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return false, err
	}
	at, ok := c.tl.events[event]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrInvalidEvent, event)
	}
	return at <= c.dev.cfg.Clock.Now(), nil
}

// EventCreate allocates an event.
func (c *Context) EventCreate() (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return 0, err
	}
	id := c.tl.nextEvent
	c.tl.nextEvent++
	c.tl.events[id] = 0
	return id, nil
}

// EventRecord captures the completion instant of all work issued so far to
// the stream (cudaEventRecord).
func (c *Context) EventRecord(event, stream uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return err
	}
	if _, ok := c.tl.events[event]; !ok {
		return fmt.Errorf("%w: %d", ErrInvalidEvent, event)
	}
	done, ok := c.tl.streamDone[stream]
	if !ok {
		return fmt.Errorf("%w: %d", ErrInvalidStream, stream)
	}
	now := c.dev.cfg.Clock.Now()
	if now > done {
		done = now
	}
	c.tl.events[event] = done
	return nil
}

// EventSynchronize advances the clock to the event's recorded instant.
func (c *Context) EventSynchronize(event uint32) error {
	c.mu.Lock()
	if err := c.check(); err != nil {
		c.mu.Unlock()
		return err
	}
	at, ok := c.tl.events[event]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrInvalidEvent, event)
	}
	c.advanceTo(at)
	return nil
}

// EventElapsed returns the modeled time between two recorded events
// (cudaEventElapsedTime).
func (c *Context) EventElapsed(start, end uint32) (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return 0, err
	}
	s, ok := c.tl.events[start]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrInvalidEvent, start)
	}
	e, ok := c.tl.events[end]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrInvalidEvent, end)
	}
	return e - s, nil
}

// EventDestroy releases an event.
func (c *Context) EventDestroy(event uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return err
	}
	if _, ok := c.tl.events[event]; !ok {
		return fmt.Errorf("%w: %d", ErrInvalidEvent, event)
	}
	delete(c.tl.events, event)
	return nil
}
