package rcuda

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/gpu"
	"rcuda/internal/netsim"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// Gates on bulk copies through the simulated pipe (DESIGN.md §4): the
// pipe stages nothing, allocates nothing with the size of the copy, and
// leaves every simulated time where it was.

// TestPipeCopyPairAllocatesNothingOfItsSize: a 64 MiB copy each way — MM
// 4096's matrix, a frame larger than the pool's largest class — through the
// pipe and a real server allocates under 64 KiB in total (134 MB when each
// direction staged a frame) and takes no bulk buffer from the pool on
// either end; the 16 MiB pair allocates no more often than it did.
func TestPipeCopyPairAllocatesNothingOfItsSize(t *testing.T) {
	skipUnderRace(t)
	const n = 64 << 20
	clk := vclock.NewSim()
	server := NewServer(gpu.New(gpu.Config{Clock: clk}))
	cli, srv := transport.Pipe(netsim.IB40G(), clk, nil)
	served := make(chan error, 1)
	go func() { served <- server.ServeConn(srv) }()
	client, err := Open(cli, moduleImage(t, calib.MM))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = client.Close()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	ptr, err := client.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := pattern(n, 3), make([]byte, n)
	pair := func(n int) {
		if err := client.MemcpyToDevice(ptr, src[:n]); err != nil {
			t.Fatal(err)
		}
		if err := client.MemcpyToHost(dst[:n], ptr); err != nil {
			t.Fatal(err)
		}
	}
	pair(n)
	bulkBefore := cli.Stats().PoolBulk + srv.Stats().PoolBulk
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pair(n)
	runtime.ReadMemStats(&after)
	if !bytes.Equal(src, dst) {
		t.Fatal("round trip diverged")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("a 64 MiB copy pair allocates %d bytes, want under 64 KiB", got)
	}
	if staged := cli.Stats().PoolBulk + srv.Stats().PoolBulk - bulkBefore; staged != 0 {
		t.Errorf("%d bulk buffers requested from the pool, want 0", staged)
	}

	allocs := testing.AllocsPerRun(5, func() { pair(16 << 20) })
	t.Logf("16 MiB copy pair over the pipe: %v allocations (%d when the pipe staged frames)", allocs, parentPipePairAllocs)
	if allocs > parentPipePairAllocs {
		t.Errorf("16 MiB copy pair allocates %v times, %d before", allocs, parentPipePairAllocs)
	}
}

// parentPipePairAllocs is what testing.AllocsPerRun(5, …) reported for the
// 16 MiB pair above at the commit before bulk frames crossed the pipe by
// reference.
const parentPipePairAllocs = 8

// TestPipeCopyTimesArePinned holds the simulated duration of a 64 MiB copy,
// each way, single-frame and chunked, on the slowest and the fastest
// network, to the values of the commit before bulk frames crossed the pipe
// by reference: a hand-over that moved an arrival or departure stamp shows
// up here by name.
func TestPipeCopyTimesArePinned(t *testing.T) {
	const n = 64 << 20
	// Nanoseconds {host to device, device to host}, generated by this test
	// at that commit.
	want := map[string][2]time.Duration{
		"GigaE/legacy":  {598308866, 598308934},
		"GigaE/chunked": {1757300509, 1757300509},
		"40GI/legacy":   {57986339, 57986228},
		"40GI/chunked":  {47072637, 47072637},
	}
	src, dst := pattern(n, 1), make([]byte, n)
	for _, link := range []*netsim.Link{netsim.GigaE(), netsim.IB40G()} {
		for _, chunked := range []bool{false, true} {
			name := link.Name() + "/legacy"
			var opts []ClientOption
			if chunked {
				name = link.Name() + "/chunked"
				opts = append(opts, WithChunkedTransfers(0, 0))
			}
			client, _, clk, stop := startSimSession(t, link, opts...)
			ptr, err := client.Malloc(n)
			if err != nil {
				t.Fatal(err)
			}
			var got [2]time.Duration
			for rep := 0; rep < 2; rep++ { // the second copy costs what the first did
				t0 := clk.Now()
				if err := client.MemcpyToDevice(ptr, src); err != nil {
					t.Fatal(err)
				}
				t1 := clk.Now()
				if err := client.MemcpyToHost(dst, ptr); err != nil {
					t.Fatal(err)
				}
				t2 := clk.Now()
				if rep == 1 && got != [2]time.Duration{t1 - t0, t2 - t1} {
					t.Errorf("%s: copy times changed between repetitions: %v, then %v", name, got, [2]time.Duration{t1 - t0, t2 - t1})
				}
				got = [2]time.Duration{t1 - t0, t2 - t1}
			}
			stop()
			if !bytes.Equal(src, dst) {
				t.Fatalf("%s: round trip diverged", name)
			}
			if w := want[name]; got != w {
				t.Errorf("%s: h2d %d ns, d2h %d ns; pinned %d and %d", name, got[0], got[1], w[0], w[1])
			}
		}
	}
}
