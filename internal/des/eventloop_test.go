package des

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"rcuda/internal/raceflag"
)

func TestEventLoopOrderAndTies(t *testing.T) {
	l := NewEventLoop()
	var order []int
	l.At(3*time.Millisecond, func() { order = append(order, 3) })
	l.At(time.Millisecond, func() { order = append(order, 1) })
	// Two events at the same instant fire in schedule order.
	l.At(2*time.Millisecond, func() { order = append(order, 20) })
	l.At(2*time.Millisecond, func() { order = append(order, 21) })
	end := l.Run()
	want := []int{1, 20, 21, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if end != 3*time.Millisecond {
		t.Fatalf("final time %v, want 3ms", end)
	}
}

func TestEventLoopNestedScheduling(t *testing.T) {
	l := NewEventLoop()
	var ticks []time.Duration
	var tick func()
	tick = func() {
		ticks = append(ticks, l.Now())
		if len(ticks) < 5 {
			l.At(10*time.Millisecond, tick)
		}
	}
	l.At(0, tick)
	l.Run()
	if len(ticks) != 5 || ticks[4] != 40*time.Millisecond {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestEventLoopStopResume(t *testing.T) {
	l := NewEventLoop()
	var fired int
	l.At(time.Millisecond, func() { fired++; l.Stop() })
	l.At(2*time.Millisecond, func() { fired++ })
	l.Run()
	if fired != 1 || len(l.events) != 1 {
		t.Fatalf("after Stop: fired=%d pending=%d", fired, len(l.events))
	}
	l.Run()
	if fired != 2 || len(l.events) != 0 {
		t.Fatalf("after resume: fired=%d pending=%d", fired, len(l.events))
	}
}

func TestEventLoopNegativeDelayClamps(t *testing.T) {
	l := NewEventLoop()
	var at time.Duration
	l.At(time.Millisecond, func() {
		l.At(-time.Second, func() { at = l.Now() })
	})
	l.Run()
	if at != time.Millisecond {
		t.Fatalf("clamped event fired at %v, want 1ms", at)
	}
}

// TestEventLoopHeapOrder checks the hand-sifted heap against a sort: random
// delays with many ties, some scheduled from inside callbacks, must fire in
// (time, schedule order), and every fired slot must be dropped from the
// heap's backing array so the callback it held can be collected.
func TestEventLoopHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewEventLoop()
	type stamp struct {
		at  time.Duration
		seq int
	}
	var want, got []stamp
	seq := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		at := l.Now() + time.Duration(rng.Intn(50))*time.Millisecond
		s := stamp{at, seq}
		seq++
		want = append(want, s)
		l.At(at-l.Now(), func() {
			got = append(got, s)
			if depth < 3 && rng.Intn(2) == 0 {
				schedule(depth + 1)
			}
		})
	}
	for i := 0; i < 2000; i++ {
		schedule(0)
	}
	l.Run()
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if len(got) != len(want) {
		t.Fatalf("fired %d of %d timers", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired as %+v, want %+v", i, got[i], want[i])
		}
	}
	for i, e := range l.events[:cap(l.events)] {
		if e.fn != nil {
			t.Fatalf("popped slot %d still holds its callback", i)
		}
	}
}

// TestEventLoopAtArg checks that an argument rides with its event: one
// bound callback scheduled many times sees each event's own argument, in
// (time, schedule order) among plain callbacks.
func TestEventLoopAtArg(t *testing.T) {
	l := NewEventLoop()
	var got []int64
	fn := func(arg int64) { got = append(got, arg) }
	l.AtArg(2*time.Millisecond, fn, 7<<32|3)
	l.At(time.Millisecond, func() { got = append(got, -1) })
	l.AtArg(time.Millisecond, fn, 5)
	l.Run()
	want := []int64{-1, 5, 7<<32 | 3}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestEventLoopAllocations gates the typed heap: scheduling and firing a
// pre-built callback at a steady heap size costs no allocation, with or
// without an argument.
func TestEventLoopAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	l := NewEventLoop()
	fn := func() {}
	argFn := func(int64) {}
	for i := 0; i < 1024; i++ {
		l.At(time.Duration(i)*time.Microsecond, fn)
	}
	l.Run() // sizes the heap's backing array
	n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1024; i++ {
			if i%2 == 0 {
				l.At(time.Duration(i%37)*time.Microsecond, fn)
			} else {
				l.AtArg(time.Duration(i%37)*time.Microsecond, argFn, int64(i))
			}
		}
		l.Run()
	})
	if n != 0 {
		t.Errorf("%v allocs per 1024 events at steady heap size, want 0", n)
	}
}

// BenchmarkEventLoop schedules 10^6 timers at pseudo-random instants within
// one virtual second and fires them all — the shape of bench/'s
// des.eventloop_ns_per_event.
func BenchmarkEventLoop(b *testing.B) {
	const timers = 1_000_000
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loop := NewEventLoop()
		x := uint64(i) + 1
		for j := 0; j < timers; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			loop.At(time.Duration(x%uint64(time.Second)), fn)
		}
		loop.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/timers, "ns/event")
}
