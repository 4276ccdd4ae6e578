// Package cluster simulates the deployment scenario that motivates the
// paper: an HPC cluster where only a few nodes have GPUs, every node can
// reach them through the rCUDA middleware, and a global scheduler maps GPU
// jobs to accelerators. The paper's conclusion section leaves "the exact
// amount of GPUs necessary in each particular case" and "scheduling of
// multiple GPUs being simultaneously accessed by several applications" to
// future work; this package implements that study.
//
// The model is list scheduling over calibrated job profiles. Each job is
// one case-study execution (MM or batched FFT at some size); its timing
// components come from the same analytic models as package workload:
//
//	prep    — data generation and middleware marshaling, on the job's own
//	          node; unlimited parallelism across nodes.
//	service — network messages plus PCIe plus kernel plus management;
//	          holds one GPU exclusively (the rCUDA daemon serializes
//	          device work across contexts).
//
// A least-loaded scheduler assigns each ready job to the GPU that frees up
// earliest — the natural baseline with full information — and per-GPU FIFO
// queues model the contention; link sharing at event granularity is
// package contention's. Sweeping the GPU count answers the sizing
// question: the smallest number of accelerators whose makespan is within a
// tolerance of the one-GPU-per-node configuration.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/workload"
)

// Job is one GPU-accelerated application execution.
type Job struct {
	ID      int
	CS      calib.CaseStudy
	Size    int
	Arrival time.Duration
	// Network optionally overrides the cluster's interconnect for this
	// job — heterogeneous clusters where some racks reach the GPU nodes
	// over a faster fabric than others. Nil uses Config.Network.
	Network *netsim.Link

	// Filled by Simulate.
	Ready      time.Duration // arrival + prep
	Start      time.Duration // service start on the assigned GPU
	End        time.Duration
	GPU        int           // assigned accelerator
	QueueDelay time.Duration // Start - Ready
}

// Turnaround is the job's total latency from arrival to completion.
func (j Job) Turnaround() time.Duration { return j.End - j.Arrival }

// Config describes the cluster under study.
type Config struct {
	// Nodes is the total node count; it bounds GPUs and is the
	// denominator of the cost story.
	Nodes int
	// GPUs is the number of nodes equipped with an accelerator.
	GPUs int
	// Network interconnects the nodes; nil means every job runs on a
	// node-local GPU (the fully equipped configuration), paying the CUDA
	// context initialization instead of network transfers.
	Network *netsim.Link
}

func (c Config) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: need at least one node, got %d", c.Nodes)
	}
	if c.Network != nil && (c.GPUs <= 0 || c.GPUs > c.Nodes) {
		return fmt.Errorf("cluster: GPUs = %d must be in [1, %d]", c.GPUs, c.Nodes)
	}
	return nil
}

// profile is the timing decomposition of one job on this cluster.
type profile struct {
	prep    time.Duration
	network time.Duration
	device  time.Duration // PCIe + kernel + mgmt (+ init when local)
}

// jobProfile derives a job's components from the workload models.
func jobProfile(cfg Config, j Job) (profile, error) {
	if cfg.Network == nil {
		r, err := workload.Run(j.CS, j.Size, workload.LocalGPU, workload.Options{})
		if err != nil {
			return profile{}, err
		}
		return profile{
			prep:   r.Parts.DataGen,
			device: r.Parts.Init + r.Parts.PCIe + r.Parts.Kernel + r.Parts.Mgmt,
		}, nil
	}
	link := cfg.Network
	if j.Network != nil {
		link = j.Network
	}
	r, err := workload.Run(j.CS, j.Size, workload.Remote, workload.Options{Link: link})
	if err != nil {
		return profile{}, err
	}
	return profile{
		prep:    r.Parts.DataGen + r.Parts.Marshal,
		network: r.Parts.Network,
		device:  r.Parts.PCIe + r.Parts.Kernel + r.Parts.Mgmt,
	}, nil
}

// Result summarizes one simulated schedule.
type Result struct {
	Jobs           []Job
	Makespan       time.Duration
	MeanTurnaround time.Duration
	P95Turnaround  time.Duration
	MeanQueueDelay time.Duration
	// Utilization is each GPU's busy fraction of the makespan.
	Utilization []float64
	// GPUs echoes the simulated accelerator count.
	GPUs int
}

// Simulate schedules the jobs on the cluster and returns per-job timings
// and aggregate metrics. The input jobs are not modified.
func Simulate(cfg Config, jobs []Job) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	nGPUs := cfg.GPUs
	if cfg.Network == nil {
		nGPUs = cfg.Nodes // fully equipped: a GPU wherever the job runs
	}

	// Each job is profiled once; its service time rides beside it through
	// the sort.
	type entry struct {
		job     Job
		service time.Duration
	}
	queue := make([]entry, len(jobs))
	for i, j := range jobs {
		p, err := jobProfile(cfg, j)
		if err != nil {
			return Result{}, err
		}
		j.Ready = j.Arrival + p.prep
		queue[i] = entry{j, p.device + p.network}
	}
	// List scheduling in ready order; ties broken by arrival then ID for
	// determinism.
	sort.Slice(queue, func(a, b int) bool {
		ja, jb := queue[a].job, queue[b].job
		if ja.Ready != jb.Ready {
			return ja.Ready < jb.Ready
		}
		if ja.Arrival != jb.Arrival {
			return ja.Arrival < jb.Arrival
		}
		return ja.ID < jb.ID
	})

	scheduled := make([]Job, len(queue))
	free := make([]time.Duration, nGPUs)
	busy := make([]time.Duration, nGPUs)

	for i, e := range queue {
		j := &scheduled[i]
		*j = e.job
		// Least loaded: the GPU that frees up earliest, lowest index on a tie.
		g := 0
		for k, f := range free {
			if f < free[g] {
				g = k
			}
		}
		service := e.service
		start := j.Ready
		if free[g] > start {
			start = free[g]
		}
		j.GPU = g
		j.Start = start
		j.End = start + service
		j.QueueDelay = start - j.Ready
		free[g] = j.End
		busy[g] += service
	}

	return summarize(scheduled, busy, nGPUs), nil
}

func summarize(jobs []Job, busy []time.Duration, nGPUs int) Result {
	res := Result{Jobs: jobs, GPUs: nGPUs, Utilization: make([]float64, nGPUs)}
	if len(jobs) == 0 {
		return res
	}
	var sumTurn, sumQueue time.Duration
	turns := make([]time.Duration, 0, len(jobs))
	for _, j := range jobs {
		if j.End > res.Makespan {
			res.Makespan = j.End
		}
		sumTurn += j.Turnaround()
		sumQueue += j.QueueDelay
		turns = append(turns, j.Turnaround())
	}
	res.MeanTurnaround = sumTurn / time.Duration(len(jobs))
	res.MeanQueueDelay = sumQueue / time.Duration(len(jobs))
	sort.Slice(turns, func(a, b int) bool { return turns[a] < turns[b] })
	res.P95Turnaround = turns[(len(turns)*95)/100]
	if res.Makespan > 0 {
		for g := range res.Utilization {
			res.Utilization[g] = float64(busy[g]) / float64(res.Makespan)
		}
	}
	return res
}

// TraceConfig parameterizes the synthetic job generator.
type TraceConfig struct {
	Jobs int
	// MeanInterarrival is the average gap between job arrivals
	// (exponentially distributed, seeded).
	MeanInterarrival time.Duration
	// MMFraction is the share of matrix-product jobs; the rest are FFT
	// batches. MM jobs draw from the paper's matrix sizes, FFT jobs from
	// its batch counts.
	MMFraction float64
	Seed       int64
}

// GenerateTrace produces a deterministic synthetic job trace.
func GenerateTrace(tc TraceConfig) []Job {
	rng := rand.New(rand.NewSource(tc.Seed))
	mmSizes := calib.Sizes(calib.MM)
	fftSizes := calib.Sizes(calib.FFT)
	jobs := make([]Job, tc.Jobs)
	var at time.Duration
	for i := range jobs {
		at += time.Duration(rng.ExpFloat64() * float64(tc.MeanInterarrival))
		j := Job{ID: i, Arrival: at}
		if rng.Float64() < tc.MMFraction {
			j.CS = calib.MM
			j.Size = mmSizes[rng.Intn(len(mmSizes))]
		} else {
			j.CS = calib.FFT
			j.Size = fftSizes[rng.Intn(len(fftSizes))]
		}
		jobs[i] = j
	}
	return jobs
}

// SweepGPUs simulates the same trace with every GPU count from 1 to
// cfg.Nodes and returns the results in order (index 0 is one GPU).
func SweepGPUs(cfg Config, jobs []Job) ([]Result, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("cluster: sweeping GPU counts needs a network configuration")
	}
	out := make([]Result, 0, cfg.Nodes)
	for g := 1; g <= cfg.Nodes; g++ {
		c := cfg
		c.GPUs = g
		r, err := Simulate(c, jobs)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// RequiredGPUs returns the smallest accelerator count whose makespan is
// within (1+tolerance) of the fully equipped local-GPU cluster's makespan —
// the paper's sizing question. It also returns both makespans.
func RequiredGPUs(cfg Config, jobs []Job, tolerance float64) (gpus int, remote, local time.Duration, err error) {
	localCfg := cfg
	localCfg.Network = nil
	localRes, err := Simulate(localCfg, jobs)
	if err != nil {
		return 0, 0, 0, err
	}
	sweep, err := SweepGPUs(cfg, jobs)
	if err != nil {
		return 0, 0, 0, err
	}
	limit := time.Duration(float64(localRes.Makespan) * (1 + tolerance))
	for _, r := range sweep {
		if r.Makespan <= limit {
			return r.GPUs, r.Makespan, localRes.Makespan, nil
		}
	}
	last := sweep[len(sweep)-1]
	return last.GPUs, last.Makespan, localRes.Makespan, nil
}
