package sched

import (
	"errors"
	"sync"
	"time"

	"rcuda/internal/stats"
	"rcuda/internal/vclock"
)

// ErrQueueClosed reports an Acquire aborted by server shutdown.
var ErrQueueClosed = errors.New("sched: queue closed by shutdown")

// Session is a flow handle: one rcuda session's scheduling identity on one
// device's Queue. Handles are created with Queue.Register; an idle handle
// (no op pending, device not held) is referenced by nothing inside the
// Queue, so dropping it releases everything.
type Session struct {
	flow
	// cur is the session's in-flight op, from Acquire to the matching
	// Release. The rcuda dialogue is synchronous, so a live session has at
	// most one, and it lives in slot. Guarded by the Queue mutex.
	cur  *op
	slot op
	// grant is closed by Release when the queue hands this session the
	// device; remade for every contended Acquire. Guarded by the Queue
	// mutex.
	grant chan struct{}
	// granted distinguishes a won grant from an aborted wait when both
	// race; guarded by the Queue mutex.
	granted bool
}

// ClassStats is one class's slice of a Queue (or merged) snapshot.
type ClassStats struct {
	// Class names the row.
	Class Class
	// Served counts ops granted for the class; Preempted counts op
	// boundaries where a running session of this class yielded the device
	// to another flow while it had more work queued.
	Served    uint64
	Preempted uint64
	// Waits is the class's queue-wait distribution: the time from an op's
	// arrival at the scheduler to its grant, on the queue's clock.
	Waits *stats.DurationHistogram
}

// Queue schedules one device among its sessions. Every gated op passes
// through Acquire (blocks until the scheduler grants the device) and
// Release (yields it at the op boundary — the preemption point). The
// internal mutex is held only across bookkeeping, never across a blocking
// operation, so a stalled tenant cannot wedge the scheduler; rcuda-vet's
// locknet analyzer enforces this shape.
type Queue struct {
	clock vclock.Clock

	mu     sync.Mutex
	c      core
	holder *Session
	waits  [NumClasses]*stats.DurationHistogram
	served [NumClasses]uint64
}

// NewQueue creates a device queue. The clock is the device's own time
// source, so queue waits are measured in the same units the busy gauges
// accumulate; nil selects a wall clock.
func NewQueue(cfg Config, clock vclock.Clock) *Queue {
	if clock == nil {
		clock = vclock.NewWall()
	}
	q := &Queue{clock: clock, c: newCore(cfg)}
	for i := range q.waits {
		q.waits[i] = stats.NewDurationHistogram()
	}
	return q
}

// Register creates a flow handle with the given class and weight. A weight
// of 0 reads as 1; callers should have bounds-checked weight against
// MaxWeight (the wire decoders do).
func (q *Queue) Register(class Class, weight uint32) *Session {
	s := &Session{flow: flow{class: class % NumClasses, weight: weight}}
	s.owner = s
	return s
}

// SetClass re-classes a flow, taking effect from its next op. The rcuda
// server calls this when a session's hello upgrades its class mid-life,
// and when a migrated-in session restores its checkpointed class.
func (q *Queue) SetClass(s *Session, class Class, weight uint32) {
	q.mu.Lock()
	s.class = class % NumClasses
	s.weight = weight
	q.mu.Unlock()
}

// Acquire blocks until the scheduler grants s the device for one op of the
// given estimated cost. done aborts the wait (server shutdown). The caller
// must pair every successful Acquire with exactly one Release.
func (q *Queue) Acquire(s *Session, cost time.Duration, done <-chan struct{}) error {
	q.mu.Lock()
	if q.holder == nil {
		// Idle device: the queue invariant (Release grants the next waiter
		// before clearing the holder) means nobody is waiting — grant
		// immediately with zero wait.
		s.cur = q.c.enqueue(&s.slot, &s.flow, cost, 0)
		q.c.pick()
		q.holder = s
		q.served[s.class]++
		q.waits[s.class].Record(0)
		q.mu.Unlock()
		return nil
	}
	s.cur = q.c.enqueue(&s.slot, &s.flow, cost, q.clock.Now())
	s.grant = make(chan struct{})
	s.granted = false
	grant := s.grant
	q.mu.Unlock()

	select {
	case <-grant:
		return nil
	case <-done:
		q.mu.Lock()
		if s.granted {
			// Lost the race: the grant landed while shutdown woke us. Own
			// the device for a moment and pass it on cleanly.
			q.mu.Unlock()
			q.Release(s, 0)
			return ErrQueueClosed
		}
		q.c.remove(s.cur)
		s.cur = nil
		q.mu.Unlock()
		return ErrQueueClosed
	}
}

// Release yields the device at an op boundary, charging the op's actual
// service time to the flow and granting the next waiter, if any — the
// scheduler's preemption point.
func (q *Queue) Release(s *Session, actual time.Duration) {
	var grant chan struct{}
	q.mu.Lock()
	if s.cur != nil {
		q.c.charge(s.cur, actual)
		s.cur = nil
	}
	if next := q.c.pick(); next != nil {
		ns := next.f.owner.(*Session)
		wait := q.clock.Now() - next.enqueuedAt
		if wait < 0 {
			wait = 0
		}
		q.served[ns.class]++
		q.waits[ns.class].Record(wait)
		ns.granted = true
		q.holder = ns
		grant = ns.grant
	} else {
		q.holder = nil
	}
	q.mu.Unlock()
	if grant != nil {
		close(grant)
	}
}

// Snapshot returns the queue's per-class accounting. The histograms are
// deep copies, safe to merge across devices.
func (q *Queue) Snapshot() [NumClasses]ClassStats {
	var out [NumClasses]ClassStats
	q.mu.Lock()
	for i := range out {
		h := stats.NewDurationHistogram()
		h.Merge(q.waits[i])
		out[i] = ClassStats{
			Class:     Class(i),
			Served:    q.served[i],
			Preempted: q.c.preempted[i],
			Waits:     h,
		}
	}
	q.mu.Unlock()
	return out
}
