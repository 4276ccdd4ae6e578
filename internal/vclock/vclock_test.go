package vclock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestSimStartsAtZero(t *testing.T) {
	c := NewSim()
	if got := c.Now(); got != 0 {
		t.Fatalf("new Sim clock at %v, want 0", got)
	}
}

func TestSimSleepAdvances(t *testing.T) {
	c := NewSim()
	c.Sleep(3 * time.Millisecond)
	c.Sleep(2 * time.Millisecond)
	if got, want := c.Now(), 5*time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestSimNegativeSleepIgnored(t *testing.T) {
	c := NewSim()
	c.Sleep(time.Millisecond)
	c.Sleep(-time.Hour)
	if got, want := c.Now(), time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v (negative sleep must be a no-op)", got, want)
	}
}

func TestSimAdvanceTo(t *testing.T) {
	c := NewSim()
	c.AdvanceTo(10 * time.Millisecond)
	if got, want := c.Now(), 10*time.Millisecond; got != want {
		t.Fatalf("after AdvanceTo: Now() = %v, want %v", got, want)
	}
	c.AdvanceTo(5 * time.Millisecond) // must not move backwards
	if got, want := c.Now(), 10*time.Millisecond; got != want {
		t.Fatalf("AdvanceTo moved clock backwards: %v, want %v", got, want)
	}
}

func TestSimConcurrentSleepsSum(t *testing.T) {
	c := NewSim()
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Sleep(time.Microsecond)
		}()
	}
	wg.Wait()
	if got, want := c.Now(), n*time.Microsecond; got != want {
		t.Fatalf("concurrent sleeps: Now() = %v, want %v", got, want)
	}
}

func TestSimConcurrentAdvanceToEndsAtMax(t *testing.T) {
	c := NewSim()
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine climbs to its own target and then asks for
			// smaller ones, which must never pull the clock back.
			target := time.Duration((i*37)%n+1) * time.Millisecond
			for step := time.Duration(1); step <= target; step += time.Millisecond / 3 {
				c.AdvanceTo(step)
			}
			c.AdvanceTo(target)
			c.AdvanceTo(target / 2)
			if now := c.Now(); now < target {
				t.Errorf("clock at %v after AdvanceTo(%v) returned", now, target)
			}
		}(i)
	}
	wg.Wait()
	if got, want := c.Now(), n*time.Millisecond; got != want {
		t.Fatalf("concurrent AdvanceTo: Now() = %v, want the largest target %v", got, want)
	}
}

func TestSimNowNeverDecreasesUnderConcurrentWriters(t *testing.T) {
	c := NewSim()
	const writers, steps = 4, 100000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every writer is a reader too: the clock it sees after each
			// step must not be below what it saw after the step before,
			// nor below a target it just advanced to.
			last := c.Now()
			for i := 0; i < steps; i++ {
				floor := last
				if (i+w)%3 == 0 {
					c.Sleep(time.Duration(i%7) * time.Nanosecond)
				} else {
					// Targets both ahead of and behind the clock.
					target := c.Now() + time.Duration(i%11) - 3
					c.AdvanceTo(target)
					floor = max(floor, target)
				}
				if last = c.Now(); last < floor {
					t.Errorf("writer %d: Now() = %v after a step from at least %v", w, last, floor)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	prev := c.Now()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		now := c.Now()
		if now < prev {
			t.Fatalf("Now() went back from %v to %v", prev, now)
		}
		prev = now
	}
}

func TestSimSleepPropertyMonotone(t *testing.T) {
	// Property: any sequence of sleeps leaves the clock at the sum of the
	// non-negative durations, and the clock never decreases.
	f := func(steps []int32) bool {
		c := NewSim()
		var want time.Duration
		prev := time.Duration(0)
		for _, s := range steps {
			c.Sleep(time.Duration(s))
			if s > 0 {
				want += time.Duration(s)
			}
			now := c.Now()
			if now < prev {
				return false
			}
			prev = now
		}
		return c.Now() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWallAdvances(t *testing.T) {
	c := NewWall()
	t0 := c.Now()
	c.Sleep(2 * time.Millisecond)
	t1 := c.Now()
	if t1-t0 < time.Millisecond {
		t.Fatalf("wall clock advanced only %v across a 2ms sleep", t1-t0)
	}
}

func TestWallZeroValueUsable(t *testing.T) {
	var c Wall
	if c.Now() > time.Second {
		t.Fatal("zero-value Wall clock should establish its epoch on first use")
	}
}

func TestStopwatch(t *testing.T) {
	c := NewSim()
	sw := NewStopwatch(c)
	c.Sleep(7 * time.Millisecond)
	if got, want := sw.Elapsed(), 7*time.Millisecond; got != want {
		t.Fatalf("Elapsed() = %v, want %v", got, want)
	}
}

func TestStopwatchString(t *testing.T) {
	sw := NewStopwatch(NewSim())
	if sw.String() == "" {
		t.Fatal("String() must not be empty")
	}
}
