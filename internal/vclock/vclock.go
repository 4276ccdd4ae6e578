// Package vclock provides the notion of time used throughout rcuda-go.
//
// Every component that models or measures latency draws time from a Clock.
// Two implementations exist: Wall, which reads the real time (used when the
// middleware runs over an actual TCP network), and Sim, a deterministic
// virtual clock advanced explicitly by the simulation models. Running the
// full middleware against a Sim clock turns an end-to-end execution into a
// discrete-event simulation whose "measured" times are reproducible.
package vclock

import (
	"fmt"
	"sync"
	"time"
)

// Clock abstracts a monotonic time source that can also be slept on.
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current instant of this clock. For a Sim clock the
	// epoch is the moment the clock was created.
	Now() time.Duration
	// Sleep advances the clock by d. On a Wall clock this blocks the
	// calling goroutine; on a Sim clock it only moves virtual time.
	Sleep(d time.Duration)
}

// Wall is a Clock backed by the machine's monotonic wall time.
type Wall struct {
	epoch time.Time
	once  sync.Once
}

// NewWall returns a wall clock whose epoch is the moment of the call.
func NewWall() *Wall { return &Wall{epoch: time.Now()} }

// Now reports the elapsed real time since the clock's epoch.
func (w *Wall) Now() time.Duration {
	w.once.Do(func() {
		if w.epoch.IsZero() {
			w.epoch = time.Now()
		}
	})
	return time.Since(w.epoch)
}

// Sleep blocks the calling goroutine for d.
func (w *Wall) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Sim is a deterministic virtual clock. Sleeping advances virtual time
// without blocking. It is safe for concurrent use; concurrent sleepers
// serialize their advances, which models the strictly synchronous
// request/response execution the paper studies.
type Sim struct {
	mu  sync.Mutex
	now time.Duration
}

// NewSim returns a virtual clock positioned at zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Sleep advances virtual time by d. Negative durations are ignored.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.now += d
	s.mu.Unlock()
}

// AdvanceTo moves the clock forward to instant t. It is a no-op if t is in
// the past; the clock never moves backwards.
func (s *Sim) AdvanceTo(t time.Duration) {
	s.mu.Lock()
	if t > s.now {
		s.now = t
	}
	s.mu.Unlock()
}

// Stopwatch measures an interval on an arbitrary Clock.
type Stopwatch struct {
	clock Clock
	start time.Duration
}

// NewStopwatch starts a stopwatch on c.
func NewStopwatch(c Clock) *Stopwatch {
	return &Stopwatch{clock: c, start: c.Now()}
}

// Elapsed reports the time elapsed since the stopwatch started.
func (sw *Stopwatch) Elapsed() time.Duration { return sw.clock.Now() - sw.start }

// String implements fmt.Stringer for debugging.
func (sw *Stopwatch) String() string {
	return fmt.Sprintf("stopwatch(%v)", sw.Elapsed())
}
