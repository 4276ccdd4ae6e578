package sched

import (
	"sync"
	"testing"
	"time"

	"rcuda/internal/raceflag"
	"rcuda/internal/vclock"
)

// TestQueueUncontended: a lone session acquires with zero wait and its
// class accounting shows the grant.
func TestQueueUncontended(t *testing.T) {
	q := NewQueue(Config{Policy: WFQ}, vclock.NewSim())
	s := q.Register(Realtime, 1)
	done := make(chan struct{})
	for i := 0; i < 3; i++ {
		if err := q.Acquire(s, time.Millisecond, done); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		q.Release(s, time.Millisecond)
	}
	snap := q.Snapshot()
	if snap[Realtime].Served != 3 {
		t.Fatalf("served = %d, want 3", snap[Realtime].Served)
	}
	if snap[Realtime].Waits.N() != 3 || snap[Realtime].Waits.Max() != 0 {
		t.Fatalf("uncontended waits: n=%d max=%v", snap[Realtime].Waits.N(), snap[Realtime].Waits.Max())
	}
	// The op of an Acquire lives in the Session, so the gate allocates
	// nothing.
	if raceflag.Enabled {
		return
	}
	if got := testing.AllocsPerRun(1000, func() {
		_ = q.Acquire(s, time.Millisecond, done)
		q.Release(s, time.Millisecond)
	}); got != 0 {
		t.Errorf("uncontended Acquire+Release allocates %v times, want 0", got)
	}
}

// TestQueueConcurrent hammers one queue from many goroutines under -race:
// every acquire must be granted exactly once and the per-class serviced
// counts must add up.
func TestQueueConcurrent(t *testing.T) {
	q := NewQueue(Config{Policy: WFQ}, vclock.NewWall())
	done := make(chan struct{})
	const workers = 8
	const opsEach = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := q.Register(Class(w%NumClasses), uint32(w+1))
			for i := 0; i < opsEach; i++ {
				if err := q.Acquire(s, 10*time.Microsecond, done); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				q.Release(s, 10*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	snap := q.Snapshot()
	var total uint64
	for _, cs := range snap {
		total += cs.Served
	}
	if total != workers*opsEach {
		t.Fatalf("served %d ops, want %d", total, workers*opsEach)
	}
}

// TestQueueShutdownUnblocks: a waiter parked behind a held device returns
// ErrQueueClosed when done closes, without wedging the queue.
func TestQueueShutdownUnblocks(t *testing.T) {
	q := NewQueue(Config{Policy: WFQ}, vclock.NewWall())
	holder := q.Register(Batch, 1)
	waiterErr := make(chan error, 1)
	done := make(chan struct{})
	if err := q.Acquire(holder, time.Millisecond, done); err != nil {
		t.Fatalf("holder acquire: %v", err)
	}
	waiter := q.Register(Batch, 1)
	go func() { waiterErr <- q.Acquire(waiter, time.Millisecond, done) }()
	// Give the waiter time to park, then shut down.
	time.Sleep(10 * time.Millisecond)
	close(done)
	select {
	case err := <-waiterErr:
		if err != ErrQueueClosed {
			t.Fatalf("waiter returned %v, want ErrQueueClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never unblocked after shutdown")
	}
	// The holder's release must still work cleanly.
	q.Release(holder, time.Millisecond)
}

// TestQueueGrantAfterShutdownRace: if the grant lands while the waiter is
// aborting, the waiter must pass the device on instead of stranding it.
func TestQueueGrantAfterShutdownRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		q := NewQueue(Config{Policy: WFQ}, vclock.NewWall())
		holder := q.Register(Batch, 1)
		done := make(chan struct{})
		if err := q.Acquire(holder, time.Microsecond, done); err != nil {
			t.Fatalf("holder acquire: %v", err)
		}
		waiter := q.Register(Batch, 1)
		errCh := make(chan error, 1)
		go func() { errCh <- q.Acquire(waiter, time.Microsecond, done) }()
		go close(done)
		go q.Release(holder, time.Microsecond)
		if err := <-errCh; err == nil {
			// The grant won the race; the waiter owns the device and must
			// yield it like any granted session.
			q.Release(waiter, 0)
		}
		// Whatever the race outcome, a third session must still be able to
		// acquire: the device was not stranded.
		third := q.Register(Realtime, 1)
		ok := make(chan error, 1)
		go func() { ok <- q.Acquire(third, time.Microsecond, make(chan struct{})) }()
		select {
		case err := <-ok:
			if err != nil {
				t.Fatalf("third acquire: %v", err)
			}
			q.Release(third, 0)
		case <-time.After(2 * time.Second):
			t.Fatal("device stranded after shutdown race")
		}
	}
}

// TestQueueSetClass re-classes a session mid-life; subsequent grants are
// accounted to the new class.
func TestQueueSetClass(t *testing.T) {
	q := NewQueue(Config{Policy: WFQ}, vclock.NewSim())
	s := q.Register(Batch, 1)
	done := make(chan struct{})
	if err := q.Acquire(s, time.Millisecond, done); err != nil {
		t.Fatal(err)
	}
	q.Release(s, time.Millisecond)
	q.SetClass(s, Realtime, 7)
	if err := q.Acquire(s, time.Millisecond, done); err != nil {
		t.Fatal(err)
	}
	q.Release(s, time.Millisecond)
	snap := q.Snapshot()
	if snap[Batch].Served != 1 || snap[Realtime].Served != 1 {
		t.Fatalf("served batch=%d realtime=%d, want 1 and 1", snap[Batch].Served, snap[Realtime].Served)
	}
}

// TestQueueWaitMeasuredOnClock: waits are measured on the queue's own
// clock — a simulated clock advanced between enqueue and grant shows up in
// the histogram.
func TestQueueWaitMeasuredOnClock(t *testing.T) {
	clk := vclock.NewSim()
	q := NewQueue(Config{Policy: WFQ}, clk)
	holder := q.Register(Batch, 1)
	done := make(chan struct{})
	if err := q.Acquire(holder, time.Millisecond, done); err != nil {
		t.Fatal(err)
	}
	waiter := q.Register(Realtime, 1)
	got := make(chan error, 1)
	go func() { got <- q.Acquire(waiter, time.Millisecond, done) }()
	// Wait until the waiter has parked in the queue, then advance the
	// virtual clock and release.
	for {
		q.mu.Lock()
		parked := len(q.c.queue) == 1
		q.mu.Unlock()
		if parked {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	clk.Sleep(5 * time.Millisecond)
	q.Release(holder, time.Millisecond)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	q.Release(waiter, 0)
	snap := q.Snapshot()
	if w := snap[Realtime].Waits.Max(); w < 5*time.Millisecond {
		t.Fatalf("recorded wait %v, want >= 5ms of simulated clock", w)
	}
}
