//go:build goexperiment.synctest

package workload

import (
	"testing"
	"testing/synctest"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/rcuda"
	"rcuda/internal/vclock"
)

// inBubble runs f inside a synctest bubble, where time is fake: it stands
// still while any goroutine of the bubble runs and jumps to the next timer
// once all of them block, so a vclock.Wall made inside reads exactly the
// sleeps charged on it. f reports with t.Errorf only: in Go 1.24 it does not
// run on the test goroutine. Go 1.25 renames this to synctest.Test(t, f).
func inBubble(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	synctest.Run(func() { f(t) })
}

// bubbleCells are the timed runs TestBubbleWallMatchesSim compares, each
// returning its modeled durations on the given clock.
var bubbleCells = []struct {
	name string
	run  func(link *netsim.Link, clk vclock.Clock) ([]time.Duration, error)
}{
	{"pipelined/2", pipelinedCell(2)},
	{"pipelined/4", pipelinedCell(4)},
	{"pipelined/8", pipelinedCell(8)},
	{"functional/MM64", functionalCell(calib.MM, 64)},
	{"functional/FFT16", functionalCell(calib.FFT, 16)},
	{"copy/single", copyCell(false)},
	{"copy/chunked", copyCell(true)},
	{"inference/unbatched", inferenceCell(false)},
	{"inference/batched", inferenceCell(true)},
}

// pipelinedCell times 64 transforms in the given number of chunks, through
// the middleware and on the analytic schedule.
func pipelinedCell(chunks int) func(*netsim.Link, vclock.Clock) ([]time.Duration, error) {
	return func(link *netsim.Link, clk vclock.Clock) ([]time.Duration, error) {
		fn, err := RunPipelined(64, chunks, Options{Link: link, Clock: clk, Functional: true})
		if err != nil {
			return nil, err
		}
		an, err := RunPipelined(64, chunks, Options{Link: link, Clock: clk})
		return []time.Duration{fn.Total, an.Total}, err
	}
}

// functionalCell times one synchronous functional run.
func functionalCell(cs calib.CaseStudy, size int) func(*netsim.Link, vclock.Clock) ([]time.Duration, error) {
	return func(link *netsim.Link, clk vclock.Clock) ([]time.Duration, error) {
		rep, err := Run(cs, size, Remote, Options{Link: link, Clock: clk, Functional: true})
		return []time.Duration{rep.Total}, err
	}
}

// copyCell times an 8 MiB copy to the device and back, in single frames or
// as chunked transfers.
func copyCell(chunked bool) func(*netsim.Link, vclock.Clock) ([]time.Duration, error) {
	return func(link *netsim.Link, clk vclock.Clock) ([]time.Duration, error) {
		const size = 8 << 20
		mod, err := kernels.ModuleFor(calib.MM)
		if err != nil {
			return nil, err
		}
		img, err := mod.Binary()
		if err != nil {
			return nil, err
		}
		var opts []rcuda.ClientOption
		if chunked {
			opts = append(opts, rcuda.WithChunkedTransfers(1, protocol.DefaultChunkSize))
		}
		daemon := rcuda.NewSimDaemon(rcuda.NewServer(gpu.New(gpu.Config{Clock: clk})), link, clk, nil)
		client, err := daemon.Open(img, opts...)
		if err != nil {
			_ = daemon.Wait()
			return nil, err
		}
		var times []time.Duration
		buf := make([]byte, size)
		ptr, err := client.Malloc(size)
		if err == nil {
			start := clk.Now()
			err = client.MemcpyToDevice(ptr, buf)
			times = append(times, clk.Now()-start)
		}
		if err == nil {
			start := clk.Now()
			err = client.MemcpyToHost(buf, ptr)
			times = append(times, clk.Now()-start)
		}
		if err == nil {
			err = client.Free(ptr)
		}
		if closeErr := client.Close(); err == nil {
			err = closeErr
		}
		if waitErr := daemon.Wait(); err == nil {
			err = waitErr
		}
		return times, err
	}
}

// inferenceCell times a 4-request inference session.
func inferenceCell(batched bool) func(*netsim.Link, vclock.Clock) ([]time.Duration, error) {
	return func(link *netsim.Link, clk vclock.Clock) ([]time.Duration, error) {
		rep, err := RunInference(InferenceOptions{Link: link, Clock: clk, Batched: batched, Requests: 4, Seed: 7})
		return []time.Duration{rep.Elapsed}, err
	}
}

// TestBubbleWallMatchesSim holds every clock to one timing model: the wall
// clock inside a synctest bubble must read what the simulated clock reads,
// to the nanosecond, for synchronous, pipelined, chunked and batched runs.
func TestBubbleWallMatchesSim(t *testing.T) {
	for _, link := range []*netsim.Link{netsim.GigaE(), netsim.IB40G()} {
		for _, cell := range bubbleCells {
			t.Run(link.Name()+"/"+cell.name, func(t *testing.T) {
				inBubble(t, func(t *testing.T) {
					want, err := cell.run(link, vclock.NewSim())
					if err != nil {
						t.Errorf("sim: %v", err)
						return
					}
					got, err := cell.run(link, vclock.NewWall())
					if err != nil {
						t.Errorf("wall: %v", err)
						return
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("time %d: wall %v, sim %v (wall - sim = %v)", i, got[i], want[i], got[i]-want[i])
						}
					}
					t.Logf("sim %v, wall %v", want, got)
				})
			})
		}
	}
}
