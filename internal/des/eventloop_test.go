package des

import (
	"fmt"
	"math"
	"math/bits"
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
	if fired != 1 || l.pending() != 1 {
		t.Fatalf("after Stop: fired=%d pending=%d", fired, l.pending())
	}
	l.Run()
	if fired != 2 || l.pending() != 0 {
		t.Fatalf("after resume: fired=%d pending=%d", fired, l.pending())
	}
}

// pending counts the loop's timers: the front one and those filed in its
// buckets, each occupied bucket's earliest and the slots its blocks list.
func (l *EventLoop) pending() int {
	n := 0
	if l.front != 0 {
		n++
	}
	for i, b := range l.buckets {
		if l.occupied[i>>6]&(1<<(i&63)) == 0 {
			continue
		}
		n++
		for blk, k := b.head, int(b.n); blk != nil; blk, k = blk.next, blockLen {
			n += k
		}
	}
	return n
}

// TestEventLoopFarFutureSaturates checks that a time past the largest
// time.Duration saturates to it instead of wrapping negative: the event
// fires last, at math.MaxInt64, after the near events beside it, and an
// event scheduled at that instant afterwards fires after it.
func TestEventLoopFarFutureSaturates(t *testing.T) {
	l := NewEventLoop()
	var order []int
	var at []time.Duration
	record := func(id int) func() {
		return func() { order = append(order, id); at = append(at, l.Now()) }
	}
	l.At(time.Millisecond, func() {
		record(1)()
		l.At(math.MaxInt64, record(4))
		l.At(time.Second, record(3))
	})
	l.At(math.MaxInt64, record(2))
	l.AtArg(math.MaxInt64-1, func(int64) { record(0)() }, 0)
	end := l.Run()
	wantOrder := []int{1, 3, 0, 2, 4}
	wantAt := []time.Duration{time.Millisecond, time.Second + time.Millisecond, math.MaxInt64 - 1, math.MaxInt64, math.MaxInt64}
	if len(order) != len(wantOrder) {
		t.Fatalf("fired %v at %v, want %v at %v", order, at, wantOrder, wantAt)
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] || at[i] != wantAt[i] {
			t.Fatalf("fired %v at %v, want %v at %v", order, at, wantOrder, wantAt)
		}
	}
	if end != math.MaxInt64 {
		t.Fatalf("final time %v, want %v", end, time.Duration(math.MaxInt64))
	}
}

// TestEventLoopMatchesSortOracle drives the queue with seeded random
// schedules and checks the firing sequence against the same events sorted
// by (time, schedule order). The delays mix bursts at one instant, short
// gaps and lengths of every bit width up to 2^62 (plus saturating ones);
// callbacks schedule further events through At and AtArg; some callbacks
// call Stop, and the test then schedules more from outside Run before it
// resumes.
func TestEventLoopMatchesSortOracle(t *testing.T) {
	type stamp struct {
		at  time.Duration
		seq int
	}
	events, resumes := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewEventLoop()
		var want, got []stamp
		budget := 6000
		delay := func() time.Duration {
			switch r := rng.Intn(16); {
			case r < 4:
				return 0
			case r < 8:
				return time.Duration(rng.Intn(64))
			case r < 15:
				return time.Duration(rng.Int63n(1 << rng.Intn(63)))
			default:
				return math.MaxInt64 - time.Duration(rng.Intn(4))
			}
		}
		var add func()
		fire := func(s stamp) {
			if l.Now() != s.at {
				t.Fatalf("seed %d: event %+v fired at %v", seed, s, l.Now())
			}
			got = append(got, s)
			if rng.Intn(40) == 0 {
				l.Stop()
			}
			for n := rng.Intn(3); n > 0 && budget > 0; n-- {
				add()
			}
		}
		argFn := func(arg int64) { fire(want[arg]) }
		add = func() {
			budget--
			d := delay()
			at := l.Now() + d
			if at < l.Now() {
				at = math.MaxInt64
			}
			s := stamp{at, len(want)}
			want = append(want, s)
			if rng.Intn(2) == 0 {
				l.At(d, func() { fire(s) })
			} else {
				l.AtArg(d, argFn, int64(s.seq))
			}
		}
		for burst := rng.Intn(50) + 1; burst > 0; burst-- {
			add()
		}
		for l.pending() > 0 {
			l.Run()
			if resumes++; resumes > 1e6 {
				t.Fatalf("seed %d: queue never drains", seed)
			}
			for n := rng.Intn(4); n > 0 && budget > 0; n-- {
				add()
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d of %d timers", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d fired as %+v, want %+v", seed, i, got[i], want[i])
			}
		}
		events += len(got)
	}
	t.Logf("%d events fired in order over %d runs of the loop", events, resumes)

	// The renewal shape, the front timer's case: one chain of timers, each
	// firing scheduling the next a short gap later, beside a population of
	// held timers, each rescheduling itself a long delay later. Gaps and
	// delays are whole quanta, and a quarter of the held timers land on
	// the renewal's next instant, so ties meet the front timer from both
	// sides. Some renewals call Stop; whenever the front then holds the
	// earliest timer, the test schedules from outside Run one timer at its
	// instant, one after it and one before it, and resumes.
	const q = time.Microsecond
	events, frontStops := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewEventLoop()
		var want, got []stamp
		budget := 20000
		var nextRenewal time.Duration
		sched := func(d time.Duration, then func()) {
			budget--
			s := stamp{l.Now() + d, len(want)}
			want = append(want, s)
			l.At(d, func() {
				if l.Now() != s.at {
					t.Fatalf("seed %d: event %+v fired at %v", seed, s, l.Now())
				}
				got = append(got, s)
				then()
			})
		}
		var hold, renew func()
		hold = func() {
			if budget <= 0 {
				return
			}
			d := q * time.Duration(rng.Intn(2000))
			if rng.Intn(4) == 0 && nextRenewal >= l.Now() {
				d = nextRenewal - l.Now()
			}
			sched(d, hold)
		}
		renew = func() {
			if rng.Intn(50) == 0 {
				l.Stop()
			}
			if budget > 0 {
				gap := q * time.Duration(1+rng.Intn(3))
				nextRenewal = l.Now() + gap
				sched(gap, renew)
			}
		}
		for i := 0; i < 1000; i++ {
			sched(q*time.Duration(rng.Intn(2000)), hold)
		}
		sched(q, renew)
		for l.pending() > 0 {
			l.Run()
			if l.pending() == 0 || !l.frontNext() {
				continue
			}
			frontStops++
			at := time.Duration(l.frontAt)
			sched(at-l.Now(), hold)
			sched(at-l.Now()+q*time.Duration(1+rng.Intn(3)), hold)
			if at > l.Now() {
				sched(time.Duration(rng.Int63n(int64(at-l.Now()))), hold)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if len(got) != len(want) {
			t.Fatalf("renewal seed %d: fired %d of %d timers", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("renewal seed %d: event %d fired as %+v, want %+v", seed, i, got[i], want[i])
			}
		}
		events += len(got)
	}
	if frontStops == 0 {
		t.Fatal("no Stop left the front timer earliest; the resume case went untested")
	}
	t.Logf("renewal beside held timers: %d events fired in order, %d stops with the front timer earliest", events, frontStops)
}

// frontNext reports whether the front timer is the one pop fires next.
func (l *EventLoop) frontNext() bool {
	if l.front == 0 {
		return false
	}
	i := bits.TrailingZeros64(l.occupied[0])
	if l.occupied[0] == 0 {
		i = 64 + bits.TrailingZeros64(l.occupied[1])
	}
	return i == len(l.buckets) || l.frontFirst(i)
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

// TestEventLoopHeapOrder checks the radix queue against a sort: random
// delays with many ties, some scheduled from inside callbacks, must fire in
// (time, schedule order), and every fired slot must be dropped from the
// slab so the callback it held can be collected.
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
	if l.front != 0 {
		t.Fatalf("the drained loop still holds slot %d in front", l.front-1)
	}
	for c, chunk := range l.slab.chunks {
		for j, e := range chunk {
			if e.fn != nil {
				t.Fatalf("popped slot %d of chunk %d still holds its callback", j, c)
			}
		}
	}

	// A lone timer waits in front of the queue, in no bucket; firing it
	// from there drops its callback all the same.
	l = NewEventLoop()
	l.At(time.Millisecond, func() {})
	if l.front == 0 || l.occupied != [2]uint64{} {
		t.Fatalf("a lone timer: front %d, occupied %b; want it in front", l.front, l.occupied)
	}
	l.Run()
	if l.front != 0 || l.slab.at(0).fn != nil {
		t.Fatalf("after firing the front timer: front %d, callback kept %v", l.front, l.slab.at(0).fn != nil)
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

// TestEventLoopAllocations gates the radix queue: scheduling and firing a
// pre-built callback at a steady number of pending timers costs no
// allocation, with or without an argument, once the slab and the block
// pool have grown to that number — both over short delays and over a long
// steady state whose delays of every bit width from 2^10 to 2^40 ns carry
// now across many power-of-two boundaries and file timers into the high
// buckets.
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
	l.Run() // sizes the slab and the block pool
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
		t.Errorf("%v allocs per 1024 events at steady queue size, want 0", n)
	}

	// The long steady state: 1024 pending timers, each rescheduling itself
	// 64 times through an xorshift draw it carries as its argument.
	hops := 0
	var hold func(int64)
	hold = func(arg int64) {
		if hops == 0 {
			return
		}
		hops--
		x := uint64(arg)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		l.AtArg(time.Duration(x%(1<<(10+x>>58%31))), hold, int64(x))
	}
	steady := func() {
		hops = 64 * 1024
		for i := 1; i <= 1024; i++ {
			hold(int64(i))
		}
		l.Run()
	}
	steady() // grows the slab and the block pool to their peak
	start := l.Now()
	n = testing.AllocsPerRun(10, steady)
	if n != 0 {
		t.Errorf("%v allocs per 64k events in the long steady state, want 0", n)
	}
	if l.Now()-start < 1<<40 {
		t.Errorf("the steady state ran from %v to %v, want over 2^40 ns", start, l.Now())
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

// BenchmarkEventLoopHold runs the classic hold model: a fixed number of
// timers pending, each fired event scheduling one at now + an exponential
// delay (mean 1 ms, seeded). It is loadgen's steady state without the
// placer; ns/event is one pop plus one schedule at that queue size.
func BenchmarkEventLoopHold(b *testing.B) {
	for _, pending := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			draw := func() time.Duration { return time.Duration(rng.ExpFloat64() * float64(time.Millisecond)) }
			l := NewEventLoop()
			left := b.N
			var hold func()
			hold = func() {
				if left--; left == 0 {
					l.Stop()
				}
				l.At(draw(), hold)
			}
			for i := 0; i < pending; i++ {
				l.At(draw(), hold)
			}
			b.ReportAllocs()
			b.ResetTimer()
			l.Run()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

// BenchmarkEventLoopRenewal runs one renewal timer beside 10^3 held
// timers: each held timer reschedules itself an exponential delay later
// (mean 1 ms), and the renewal an exponential gap later at the same total
// rate (mean 1 µs), so half the events are renewals — loadgen's arrival
// process beside its sessions' holds, without the placer. ns/event is one
// pop plus one schedule; the renewals fire from the front slot.
func BenchmarkEventLoopRenewal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	draw := func(mean time.Duration) time.Duration { return time.Duration(rng.ExpFloat64() * float64(mean)) }
	l := NewEventLoop()
	left := b.N
	var hold, renew func()
	stop := func() {
		if left--; left == 0 {
			l.Stop()
		}
	}
	hold = func() { stop(); l.At(draw(time.Millisecond), hold) }
	renew = func() { stop(); l.At(draw(time.Microsecond), renew) }
	for i := 0; i < 1000; i++ {
		l.At(draw(time.Millisecond), hold)
	}
	l.At(draw(time.Microsecond), renew)
	b.ReportAllocs()
	b.ResetTimer()
	l.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
