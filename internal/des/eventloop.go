package des

import (
	"fmt"
	"time"
)

// EventLoop is the package's second, goroutine-free execution model: timed
// callbacks on a deterministic virtual clock. The coroutine Simulator above
// gives each modeled thread of control its own stack, which reads naturally
// but costs a goroutine per process — fine for a handful of contending
// clients, prohibitive for the load generator's 10^5–10^6 simulated
// sessions. An EventLoop holds only a binary heap of pending callbacks, so
// a million-session run is a few million heap operations on one stack.
//
// Determinism matches the Simulator's: events fire in (time, schedule
// order), so two runs that schedule the same callbacks produce identical
// timelines.
type EventLoop struct {
	now     time.Duration
	events  []timer // binary min-heap on (at, seq)
	seq     int64
	running bool
	stopped bool
}

// NewEventLoop returns an empty loop at virtual time zero.
func NewEventLoop() *EventLoop { return &EventLoop{} }

// Now returns the current virtual time.
func (l *EventLoop) Now() time.Duration { return l.now }

// Pending returns the number of scheduled callbacks not yet fired.
func (l *EventLoop) Pending() int { return len(l.events) }

// At schedules fn to run at now+delay. Negative delays are clamped to now.
// Callbacks may schedule further callbacks; ties fire in schedule order.
func (l *EventLoop) At(delay time.Duration, fn func()) {
	if fn == nil {
		panic("des: EventLoop.At with nil callback")
	}
	l.schedule(delay, thunk(fn), 0)
}

// AtArg schedules fn(arg) to run at now+delay, like At. A callback bound
// once and handed its event's data as arg lets a caller schedule many
// distinct events without building a closure for each.
func (l *EventLoop) AtArg(delay time.Duration, fn func(int64), arg int64) {
	if fn == nil {
		panic("des: EventLoop.AtArg with nil callback")
	}
	l.schedule(delay, argFunc(fn), arg)
}

func (l *EventLoop) schedule(delay time.Duration, fn callback, arg int64) {
	if delay < 0 {
		delay = 0
	}
	l.seq++
	l.events = append(l.events, timer{at: l.now + delay, seq: l.seq, fn: fn, arg: arg})
	l.siftUp(len(l.events) - 1)
}

// Stop makes Run return before firing the next callback. Pending events
// stay queued; a subsequent Run resumes from them.
func (l *EventLoop) Stop() { l.stopped = true }

// Run fires callbacks in timestamp order until none remain (or Stop is
// called from within one), returning the final virtual time.
func (l *EventLoop) Run() time.Duration {
	if l.running {
		panic("des: EventLoop.Run reentered")
	}
	l.running = true
	l.stopped = false
	defer func() { l.running = false }()
	for len(l.events) > 0 && !l.stopped {
		e := l.pop()
		if e.at < l.now {
			panic(fmt.Sprintf("des: event loop time went backwards: %v -> %v", l.now, e.at))
		}
		l.now = e.at
		e.fn.fire(e.arg)
	}
	return l.now
}

// timer is one pending callback: fn fires with arg.
type timer struct {
	at  time.Duration
	seq int64
	fn  callback
	arg int64
}

// callback is what a timer fires. Both kinds are single func values, which
// an interface holds without allocating.
type callback interface{ fire(arg int64) }

type thunk func()

func (f thunk) fire(int64) { f() }

type argFunc func(int64)

func (f argFunc) fire(arg int64) { f(arg) }

func (a *timer) before(b *timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The heap is sifted in place on the typed slice: container/heap would box
// every timer into an interface on the way in and again on the way out —
// two allocations per event.

func (l *EventLoop) siftUp(i int) {
	h := l.events
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// pop removes and returns the earliest timer. The vacated tail slot is
// zeroed so the fired callback's closure is not kept reachable.
func (l *EventLoop) pop() timer {
	h := l.events
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = timer{}
	h = h[:n]
	l.events = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
	return top
}
