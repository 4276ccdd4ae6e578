package broker

import (
	"runtime"
	"testing"

	"rcuda/internal/calib"
	"rcuda/internal/gpu"
	"rcuda/internal/netsim"
	"rcuda/internal/raceflag"
	"rcuda/internal/rcuda"
	"rcuda/internal/sched"
	"rcuda/internal/vclock"
)

// churnPool is the churn benchmark's deployment on simulated pipes: a pool
// over two daemons, each a WFQ server on its own device. No socket is
// involved, so nothing of the net package's allocations enters a count.
func churnPool(t *testing.T) (*Pool, [2]*rcuda.SimDaemon) {
	t.Helper()
	var daemons [2]*rcuda.SimDaemon
	var eps []Endpoint
	for i := range daemons {
		clk := vclock.NewSim()
		srv := rcuda.NewServer(gpu.New(gpu.Config{Clock: clk}), rcuda.WithScheduler(sched.WFQ))
		daemons[i] = rcuda.NewSimDaemon(srv, netsim.IB40G(), clk, nil)
		eps = append(eps, Endpoint{Name: string(rune('a' + i)), Dial: daemons[i].Dial})
	}
	pool, err := New(eps)
	if err != nil {
		t.Fatal(err)
	}
	return pool, daemons
}

// closeChurnPool closes pool and waits for both daemons' handlers, failing
// on any handler error or device memory left in use.
func closeChurnPool(t *testing.T, pool *Pool, daemons [2]*rcuda.SimDaemon) {
	t.Helper()
	_ = pool.Close()
	for _, d := range daemons {
		if err := d.Wait(); err != nil {
			t.Error(err)
		}
	}
}

// maxSessionCycleAllocs bounds TestSessionCycleAllocs: the 18 allocations
// it reads, plus 1. It read 44 when every session dialed its own
// connection, and 110 before that.
const maxSessionCycleAllocs = 19

// TestSessionCycleAllocs counts what a broker session costs from open to
// close, both ends: a cycle opens a session on each daemon of the pool,
// mallocs and frees on each, closes both and waits until both daemons have
// torn them down. A session allocates only what it keeps — its Client, its
// session, context and scheduler flow on the daemon, the device block. It
// opens on the connection the pool kept from the previous cycle's session
// on that daemon, so no connection end or pipe is made. Waiting for the
// teardown makes the count exact: the buffers a handler puts back are in
// the pool before the next cycle asks for them.
// The cycle spans both daemons so that a regression of two allocations per
// session exceeds the bound's margin.
func TestSessionCycleAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops buffers under the race detector; allocation counts are not exact")
	}
	pool, daemons := churnPool(t)
	defer closeChurnPool(t, pool, daemons)
	img := moduleImage(t, calib.MM)
	var sessions [2]*Session
	cycle := func() {
		for i := range sessions {
			s, err := pool.Open(img, JobSpec{})
			if err != nil {
				t.Fatal(err)
			}
			sessions[i] = s
		}
		for _, s := range sessions {
			ptr, err := s.Malloc(4096)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Free(ptr); err != nil {
				t.Fatal(err)
			}
		}
		if sessions[0].Endpoint == sessions[1].Endpoint {
			t.Fatalf("both sessions placed on %s", sessions[0].Endpoint)
		}
		for _, s := range sessions {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range daemons {
			if err := d.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two collections empty the frame-buffer pool of what earlier tests
	// left in it; the warm-up cycles then fill it as a session churn does.
	runtime.GC()
	runtime.GC()
	for i := 0; i < 10; i++ {
		cycle()
	}
	got := testing.AllocsPerRun(200, cycle)
	t.Logf("session cycle on each of two daemons: %v allocations (%v per session)", got, got/2)
	if got > maxSessionCycleAllocs {
		t.Errorf("a session cycle on each of two daemons allocates %v times, want at most %d", got, maxSessionCycleAllocs)
	}
}

// idleSessionBytes is the heap TestIdleSessionFootprint reads retained per
// idle session, the median of seven runs; its parent read 6 668 B. The
// test fails 30 % above it.
const idleSessionBytes = 5812

// TestIdleSessionFootprint holds 1 000 open broker sessions on the churn
// pool and reports the heap they retain per session after a collection —
// ROADMAP item 3c's number. It fails when a change makes a session keep
// more than 30 % over the committed figure: allocations saved by making
// the structs a session keeps bigger are not saved.
func TestIdleSessionFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes what a session allocates")
	}
	const n = 1000
	pool, daemons := churnPool(t)
	defer closeChurnPool(t, pool, daemons)
	img := moduleImage(t, calib.MM)
	sessions := make([]*Session, 0, n)
	// Two collections each side: the first moves the frame-buffer pool's
	// contents to its victim cache, the second drops them, so only what the
	// sessions hold is counted.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		s, err := pool.Open(img, JobSpec{})
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	for _, s := range sessions {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("an idle session retains %.0f B of heap (committed: %d B)", per, idleSessionBytes)
	if limit := 1.3 * idleSessionBytes; per > limit {
		t.Errorf("an idle session retains %.0f B of heap, want at most %.0f B (%d B + 30 %%)", per, limit, idleSessionBytes)
	}
}
