// Package contention studies several applications sharing one rCUDA server
// at event granularity — the paper's remaining future-work item ("potential
// network contention caused by multiple applications running in a cluster
// featuring several GPGPU servers will also be covered in future work").
//
// Each client is a callback chain on a des.EventLoop replaying its case
// study's exact message schedule (perfmodel.Schedule). Two resources
// serialize the shared hardware: the server's network link (one frame on
// the wire at a time, FIFO) and the GPU (each message's Device time, a
// PCIe transfer or a kernel, executes exclusively, FIFO across sessions,
// as the daemon's time multiplexing implies). Client-local work — data
// generation and marshaling — proceeds in parallel on each client's own
// node.
//
// With one client the event-level execution collapses to the paper's
// synchronous model, and a test asserts it matches workload.Run exactly.
package contention

import (
	"fmt"
	"sort"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/des"
	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
)

// Params configures one contention experiment.
type Params struct {
	CS   calib.CaseStudy
	Size int
	// Clients is the number of concurrent applications sharing the
	// server.
	Clients int
	// Link is the interconnect into the GPU node, shared by all clients.
	Link *netsim.Link
	// Stagger is an optional arrival offset between consecutive clients.
	Stagger time.Duration
}

// Result summarizes one experiment.
type Result struct {
	// PerClient holds each client's completion instant minus its arrival.
	PerClient []time.Duration
	// Makespan is the instant the last client finishes.
	Makespan time.Duration
	// LinkUtilization and GPUUtilization are busy fractions of the run.
	LinkUtilization float64
	GPUUtilization  float64
}

// Run executes the experiment.
func Run(p Params) (Result, error) {
	if p.Clients < 1 {
		return Result{}, fmt.Errorf("contention: need at least one client, got %d", p.Clients)
	}
	if p.Link == nil {
		return Result{}, fmt.Errorf("contention: nil link")
	}
	if p.Size <= 0 {
		return Result{}, fmt.Errorf("contention: non-positive size %d", p.Size)
	}

	loop := des.NewEventLoop()
	link, gpu := &resource{loop: loop}, &resource{loop: loop}

	prep := calib.DataGenTime(p.CS, p.Size) + calib.MarshalTime(p.CS, p.Size)
	schedule := perfmodel.Schedule(p.CS, p.Size)

	res := Result{PerClient: make([]time.Duration, p.Clients)}
	finished := 0
	for c := range res.PerClient {
		c := c
		loop.At(time.Duration(c)*p.Stagger, func() {
			start := loop.Now()
			// send replays message i: the request frame on the shared
			// wire, the device work it implies, the response frame back.
			var send func(i int)
			send = func(i int) {
				if i == len(schedule) {
					loop.At(calib.Mgmt, func() {
						res.PerClient[c] = loop.Now() - start
						finished++
					})
					return
				}
				msg := schedule[i]
				next := func() { send(i + 1) }
				respond := next
				if msg.Recv > 0 {
					respond = func() { link.use(p.Link.WireTime(msg.Recv), next) }
				}
				serve := respond
				if msg.Device > 0 {
					serve = func() { gpu.use(msg.Device, respond) }
				}
				link.use(p.Link.WireTime(msg.Send), serve)
			}
			loop.At(prep, func() { send(0) }) // node-local, fully parallel across clients
		})
	}
	var err error
	if res.Makespan, err = runClients(loop, &finished, p.Clients); err != nil {
		return Result{}, err
	}
	res.LinkUtilization = link.utilization(res.Makespan)
	res.GPUUtilization = gpu.utilization(res.Makespan)
	return res, nil
}

// runClients fires the loop until it drains. A client whose chain stopped
// short of its end is a modeling bug, reported instead of a result.
func runClients(loop *des.EventLoop, finished *int, clients int) (time.Duration, error) {
	end := loop.Run()
	if *finished != clients {
		return 0, fmt.Errorf("contention: %d of %d clients never finished", clients-*finished, clients)
	}
	return end, nil
}

// resource is one exclusive unit of shared hardware with a FIFO wait queue.
type resource struct {
	loop    *des.EventLoop
	held    bool
	waiters []hold
	busy    time.Duration // summed hold time
}

// hold is one use of a resource: keep it for d, then run then.
type hold struct {
	d    time.Duration
	then func()
}

// use holds the resource for d, queued FIFO behind earlier holders, and
// runs then when the hold ends.
func (r *resource) use(d time.Duration, then func()) {
	if r.held {
		r.waiters = append(r.waiters, hold{d, then})
		return
	}
	r.held = true
	r.start(hold{d, then})
}

func (r *resource) start(h hold) {
	r.busy += h.d
	r.loop.At(h.d, func() {
		r.release()
		h.then()
	})
}

// release hands the unit to the oldest waiter. The waiter starts at this
// instant, behind every callback already due now.
func (r *resource) release() {
	if len(r.waiters) == 0 {
		r.held = false
		return
	}
	next := r.waiters[0]
	r.waiters = r.waiters[1:]
	r.loop.At(0, func() { r.start(next) })
}

// utilization is the resource's busy fraction of span.
func (r *resource) utilization(span time.Duration) float64 {
	if span == 0 {
		return 0
	}
	return float64(r.busy) / float64(span)
}

// Sweep runs the experiment for every client count in [1, maxClients] and
// returns the results in order.
func Sweep(base Params, maxClients int) ([]Result, error) {
	if maxClients < 1 {
		return nil, fmt.Errorf("contention: maxClients %d", maxClients)
	}
	out := make([]Result, 0, maxClients)
	for c := 1; c <= maxClients; c++ {
		p := base
		p.Clients = c
		r, err := Run(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Slowdown reports each client count's mean per-client slowdown relative
// to the single-client execution — the contention penalty curve.
func Slowdown(results []Result) []float64 {
	if len(results) == 0 {
		return nil
	}
	base := results[0].PerClient[0].Seconds()
	out := make([]float64, len(results))
	for i, r := range results {
		var sum float64
		for _, d := range r.PerClient {
			sum += d.Seconds()
		}
		mean := sum / float64(len(r.PerClient))
		out[i] = mean / base
	}
	return out
}

// P95Turnaround returns the 95th-percentile per-client turnaround of a
// result (by nearest-rank on the sorted turnarounds).
func P95Turnaround(r Result) time.Duration {
	if len(r.PerClient) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), r.PerClient...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)*95)/100]
}
