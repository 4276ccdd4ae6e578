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
// waits) advance the clock to the relevant completion instant.
//
// Functionally, the simulated work is performed immediately at issue time
// (device memory is host-backed and the protocol is in-order per context),
// so results are identical to the synchronous path; only timing differs.

// DefaultStream is CUDA's stream 0: operations on it are synchronous with
// respect to the host.
const DefaultStream uint32 = 0

// Engine selects which device engine an async operation occupies.
type Engine int

// The Tesla C1060's two engines.
const (
	CopyEngine Engine = iota
	ExecEngine
)

// Engines is the device's engine layout as a booking ledger: the
// busy-until instant of each engine and of each stream's in-order queue.
// An operation starts once its engine and its stream are both free. A
// context books its async work here; the analytic pipelined run books a
// schedule's device time on one of its own, so both charge the same
// overlap. The default stream's mark is a field; the map of other streams
// is made by the first booking or creation of one.
type Engines struct {
	engineDone  [2]time.Duration
	defaultDone time.Duration
	streams     map[uint32]time.Duration
}

// Book books cost on an engine and a stream, starting no earlier than
// notBefore, and returns the completion instant. A stream never booked or
// created starts free.
func (e *Engines) Book(eng Engine, stream uint32, cost, notBefore time.Duration) time.Duration {
	sdone, _ := e.stream(stream)
	end := max(notBefore, e.engineDone[eng], sdone) + cost
	e.engineDone[eng] = end
	e.setStream(stream, end)
	return end
}

// Idle returns the instant every booked operation has completed.
func (e *Engines) Idle() time.Duration {
	latest := max(e.defaultDone, e.engineDone[CopyEngine], e.engineDone[ExecEngine])
	for _, d := range e.streams {
		latest = max(latest, d)
	}
	return latest
}

// stream returns the instant the stream's booked work completes; ok is
// false for a stream that does not exist.
func (e *Engines) stream(id uint32) (done time.Duration, ok bool) {
	if id == DefaultStream {
		return e.defaultDone, true
	}
	done, ok = e.streams[id]
	return done, ok
}

// setStream marks the stream busy until done, creating it if need be.
func (e *Engines) setStream(id uint32, done time.Duration) {
	if id == DefaultStream {
		e.defaultDone = done
		return
	}
	if e.streams == nil {
		e.streams = make(map[uint32]time.Duration)
	}
	e.streams[id] = done
}

// timeline is one context's engine bookings plus its events. The map of
// events is made by the first EventCreate, which most sessions never call.
type timeline struct {
	Engines
	events     map[uint32]time.Duration
	nextStream uint32
	nextEvent  uint32
}

func newTimeline() timeline { return timeline{nextStream: 1, nextEvent: 1} }

// setEvent records the event's instant, creating the event if need be.
func (tl *timeline) setEvent(id uint32, at time.Duration) {
	if tl.events == nil {
		tl.events = make(map[uint32]time.Duration)
	}
	tl.events[id] = at
}

// ErrInvalidStream is returned for operations on unknown streams.
var ErrInvalidStream = fmt.Errorf("gpu: invalid stream")

// ErrInvalidEvent is returned for operations on unknown events.
var ErrInvalidEvent = fmt.Errorf("gpu: invalid event")

// schedule books an async operation of the given cost on an engine and
// stream that cannot start before the given instant, returning its
// completion instant. The caller names the instant: an operation issued now
// passes the clock's now, while the chunked-memcpy server books PCIe pushes
// at each chunk's network-arrival stamp, which the sending client has
// already advanced the shared clock past — "now" would erase exactly the
// overlap being modeled. The caller holds c.mu.
func (c *Context) schedule(eng Engine, stream uint32, cost, notBefore time.Duration) (time.Duration, error) {
	if _, ok := c.tl.stream(stream); !ok {
		return 0, fmt.Errorf("%w: %d", ErrInvalidStream, stream)
	}
	if c.dev.cfg.Jitter != nil {
		cost = c.dev.cfg.Jitter.Perturb(cost)
	}
	return c.tl.Book(eng, stream, cost, notBefore), nil
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
	c.tl.setStream(id, 0)
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
	delete(c.tl.streams, stream)
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
	done, ok := c.tl.stream(stream)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrInvalidStream, stream)
	}
	c.dev.cfg.Clock.AdvanceTo(done)
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
	latest := c.tl.Idle()
	c.mu.Unlock()
	c.dev.cfg.Clock.AdvanceTo(latest)
	return nil
}

// LaunchAsync executes a kernel on a stream: computation happens now,
// modeled time is booked on the compute engine. Stream 0 falls back to the
// synchronous Launch.
func (c *Context) LaunchAsync(name string, grid, block Dim3, shared uint32, params []byte, stream uint32) error {
	if stream == DefaultStream {
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
	_, err = c.schedule(ExecEngine, stream, cost, c.dev.cfg.Clock.Now())
	c.mu.Unlock()
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
	done, ok := c.tl.stream(stream)
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
	c.tl.setEvent(id, 0)
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
	done, ok := c.tl.stream(stream)
	if !ok {
		return fmt.Errorf("%w: %d", ErrInvalidStream, stream)
	}
	now := c.dev.cfg.Clock.Now()
	if now > done {
		done = now
	}
	c.tl.setEvent(event, done)
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
	c.dev.cfg.Clock.AdvanceTo(at)
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
