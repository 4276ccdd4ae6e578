package broker

import (
	"fmt"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cluster"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/rcuda"
	"rcuda/internal/vclock"
	"rcuda/internal/workload"
)

// SimJob is one job of the live-vs-predicted makespan experiment.
type SimJob struct {
	ID   int
	CS   calib.CaseStudy
	Size int
}

// ExperimentJobs is the live-vs-predicted experiment's workload, the mix
// both the live pool and the predictor schedule: nine MM and FFT jobs,
// small enough to execute functionally.
func ExperimentJobs() []SimJob {
	sizes := []struct {
		cs   calib.CaseStudy
		size int
	}{
		{calib.MM, 128}, {calib.FFT, 16}, {calib.MM, 64},
		{calib.FFT, 32}, {calib.MM, 128}, {calib.MM, 48},
		{calib.FFT, 16}, {calib.MM, 96}, {calib.FFT, 8},
	}
	jobs := make([]SimJob, len(sizes))
	for i, s := range sizes {
		jobs[i] = SimJob{ID: i, CS: s.cs, Size: s.size}
	}
	return jobs
}

// LiveResult compares a live pool schedule with the cluster simulator's
// list-scheduling prediction of the same workload.
type LiveResult struct {
	// Makespan is the live schedule's span: the latest per-server clock
	// after every job finished.
	Makespan time.Duration
	// Predicted is cluster.Simulate's makespan for the same jobs and
	// servers.
	Predicted time.Duration
	// PerServer is each server's final clock reading.
	PerServer []time.Duration
	// Placements maps job index (in submission order) to server index.
	Placements []int
	// Stats are the pool's counters after the run.
	Stats PoolStats
}

// Delta is the live makespan's relative deviation from the prediction.
func (r LiveResult) Delta() float64 {
	if r.Predicted == 0 {
		return 0
	}
	return float64(r.Makespan-r.Predicted) / float64(r.Predicted)
}

// SimulateLive runs the jobs through a live least-loaded pool of nServers
// in-process rcudad servers — real protocol, real (simulated) devices, real
// data with CPU-oracle verification — each server on its own simulated
// clock, and compares the resulting makespan against cluster.Simulate's
// prediction.
//
// The correspondence with the offline model:
//
//   - Each server's Sim clock plays the role of the simulator's free[g].
//     Network, PCIe, and kernel time accrue on it through the transport
//     pipe and the device; the harness charges the management overhead,
//     and sleeps the clock to the job's ready time (arrival + data
//     generation + marshaling) before the session starts, mirroring
//     start = max(Ready, free[g]).
//   - Jobs are submitted sequentially in ready order with a probe round
//     before each placement, so the policy sees up-to-date gauges —
//     exactly the information the list scheduler has.
//   - Probe connections run on throwaway clocks (Endpoint.ProbeDial), so
//     monitoring does not perturb the timeline being measured.
//
// The live makespan and the prediction then differ only where the wire
// protocol differs from the analytic network model (real framing and
// per-message sizes versus the calibrated per-size transfer estimate).
func SimulateLive(link *netsim.Link, nServers int, jobs []SimJob) (LiveResult, error) {
	if nServers < 1 {
		return LiveResult{}, fmt.Errorf("broker: need at least one server, got %d", nServers)
	}

	// Offline prediction of the same workload.
	cjobs := make([]cluster.Job, len(jobs))
	for i, j := range jobs {
		cjobs[i] = cluster.Job{ID: j.ID, CS: j.CS, Size: j.Size}
	}
	pred, err := cluster.Simulate(cluster.Config{Nodes: nServers, GPUs: nServers, Network: link}, cjobs)
	if err != nil {
		return LiveResult{}, err
	}

	// Live pool over in-process servers, one Sim clock per server. A job's
	// handler keeps charging its server's clock after the client's Close
	// returns — it tears the session down asynchronously — so the harness
	// waits for the server's job daemon to release the session before it
	// reads or compares that clock again. The pool keeps each daemon's
	// job connection between sessions, and the handler rests on it.
	clocks := make([]*vclock.Sim, nServers)
	servers := make([]*rcuda.Server, nServers)
	daemons := make([]*rcuda.SimDaemon, nServers)
	eps := make([]Endpoint, nServers)
	for i := range clocks {
		clk := vclock.NewSim()
		srv := rcuda.NewServer(gpu.New(gpu.Config{Clock: clk}))
		clocks[i], servers[i] = clk, srv
		daemons[i] = rcuda.NewSimDaemon(srv, link, clk, nil)
		eps[i] = Endpoint{
			Name: fmt.Sprintf("sim-%d", i),
			Link: link,
			Dial: daemons[i].Dial,
			// Out-of-band monitoring: probe wire time lands on a clock of
			// its own, not the server's timeline.
			ProbeDial: rcuda.NewSimDaemon(srv, link, vclock.NewSim(), nil).Dial,
		}
	}
	pool, err := New(eps)
	if err != nil {
		return LiveResult{}, err
	}
	defer pool.Close()

	res := LiveResult{Predicted: pred.Makespan, Placements: make([]int, 0, len(jobs))}

	// pred.Jobs is the schedule in ready order with Ready filled in.
	for _, cj := range pred.Jobs {
		mod, err := kernels.ModuleFor(cj.CS)
		if err != nil {
			return LiveResult{}, err
		}
		img, err := mod.Binary()
		if err != nil {
			return LiveResult{}, err
		}
		pool.Refresh()
		sess, err := pool.Open(img, JobSpec{CS: cj.CS, Size: cj.Size})
		if err != nil {
			return LiveResult{}, fmt.Errorf("broker: placing job %d: %w", cj.ID, err)
		}
		clk := clocks[sess.idx]
		if now := clk.Now(); now < cj.Ready {
			clk.Sleep(cj.Ready - now)
		}
		verified, err := workload.ExecuteFunctional(cj.CS, cj.Size, sess, int64(cj.ID)+1)
		if err == nil && !verified {
			err = fmt.Errorf("broker: job %d failed verification", cj.ID)
		}
		if err != nil {
			_ = sess.Close()
			return LiveResult{}, err
		}
		clk.Sleep(calib.Mgmt)
		if err := sess.Close(); err != nil {
			return LiveResult{}, err
		}
		// The handler rests, waiting for the kept connection's next
		// session, only after it has dropped the session gauge and released
		// the session; only then is the server's clock quiescent, so
		// neither the next probe's gauges nor the next job's
		// max(Ready, free) can race a teardown charge.
		if err := daemons[sess.idx].Wait(); err != nil {
			return LiveResult{}, fmt.Errorf("broker: job %d: %w", cj.ID, err)
		}
		res.Placements = append(res.Placements, sess.idx)
	}

	for _, clk := range clocks {
		d := clk.Now()
		res.PerServer = append(res.PerServer, d)
		if d > res.Makespan {
			res.Makespan = d
		}
	}
	res.Stats = pool.Stats()
	// Close the pool first: its persistent probe connections would otherwise
	// hold each server's drain open for the full close grace. (A drain
	// closes the kept job connections at once.)
	_ = pool.Close()
	for _, srv := range servers {
		_ = srv.Close()
	}
	return res, nil
}
