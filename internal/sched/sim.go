package sched

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"rcuda/internal/stats"
)

// This file is the scheduler's deterministic proving ground: a
// goroutine-free event-driven simulation of one device shared by a tenant
// mix, driving the exact same decision core the live Queue uses. Every
// random draw comes from per-tenant streams derived from one master seed,
// so a scenario is a pure function of its SimConfig — the property
// BENCH_sched.json's two-run determinism check relies on.

// TenantSpec describes one simulated session.
type TenantSpec struct {
	// Name labels the tenant in results.
	Name string
	// Class and Weight are the tenant's scheduling parameters.
	Class  Class
	Weight uint32
	// OpCost is the service time of each of the tenant's ops.
	OpCost time.Duration
	// Backlog > 0 makes the tenant closed-loop with that many ops always
	// queued — the greedy bulk tenant with a deep async pipeline.
	Backlog int
	// MeanGap > 0 makes the tenant open-loop: single ops arrive with
	// exponentially distributed gaps of this mean — the latency-sensitive
	// tenant issuing sporadic small launches.
	MeanGap time.Duration
}

// SimConfig parameterizes one Simulate run.
type SimConfig struct {
	// Seed derives every tenant's arrival stream.
	Seed int64
	// Policy and ClassWeights configure the scheduler under test.
	Policy       Policy
	ClassWeights [NumClasses]uint32
	// Duration is the arrival window: ops arriving inside it are counted,
	// the queue then drains.
	Duration time.Duration
	// Tenants is the mix sharing the device.
	Tenants []TenantSpec
}

// TenantResult is one tenant's outcome.
type TenantResult struct {
	Name   string
	Class  Class
	Served uint64
	// Wait statistics for the tenant's ops: arrival to grant.
	WaitP50  time.Duration
	WaitP99  time.Duration
	WaitMax  time.Duration
	WaitMean time.Duration
}

// ClassResult merges the tenants of one class.
type ClassResult struct {
	Class    Class
	Served   uint64
	WaitP50  time.Duration
	WaitP99  time.Duration
	WaitMax  time.Duration
	WaitMean time.Duration
}

// SimResult is a Simulate run's outcome.
type SimResult struct {
	Policy      Policy
	Tenants     []TenantResult
	Classes     []ClassResult
	TotalServed uint64
	// BusyFrac is the device's utilization over the arrival window —
	// equal-aggregate-throughput comparisons key off it and TotalServed.
	BusyFrac float64
	// Preemptions counts op-boundary yields across all classes.
	Preemptions uint64
}

// simEvent is a heap entry: an op arrival or a service completion.
type simEvent struct {
	at  time.Duration
	seq uint64 // deterministic tie-break for equal instants
	// complete is true for a service completion of the running op;
	// otherwise this is tenant's next arrival.
	complete bool
	tenant   *simTenant
}

type simEventHeap []simEvent

func (h simEventHeap) Len() int { return len(h) }
func (h simEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h simEventHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *simEventHeap) Push(x any)      { *h = append(*h, x.(simEvent)) }
func (h *simEventHeap) Pop() any        { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *simEventHeap) push(e simEvent) { heap.Push(h, e) }
func (h *simEventHeap) pop() simEvent   { return heap.Pop(h).(simEvent) }

// simTenant is one tenant's live state. A closed-loop tenant keeps its
// whole Backlog enqueued in the core — the deep async pipeline whose queue
// depth is exactly what FIFO makes everyone else wait behind.
type simTenant struct {
	flow
	spec   TenantSpec
	rng    *rand.Rand
	waits  *stats.DurationHistogram
	served uint64
}

// Simulate runs the tenant mix against the scheduler and reports per-tenant
// and per-class waits. It is deterministic: same config, same result.
func Simulate(cfg SimConfig) *SimResult {
	if cfg.Duration <= 0 || len(cfg.Tenants) == 0 {
		return &SimResult{Policy: cfg.Policy}
	}
	c := newCore(Config{Policy: cfg.Policy, ClassWeights: cfg.ClassWeights})
	var evq simEventHeap
	var evSeq uint64
	schedule := func(at time.Duration, complete bool, t *simTenant) {
		evq.push(simEvent{at: at, seq: evSeq, complete: complete, tenant: t})
		evSeq++
	}

	tenants := make([]*simTenant, len(cfg.Tenants))
	for i, spec := range cfg.Tenants {
		t := &simTenant{
			spec:  spec,
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i) + 1)),
			waits: stats.NewDurationHistogram(),
		}
		t.flow = flow{class: spec.Class % NumClasses, weight: spec.Weight}
		t.owner = t
		tenants[i] = t
		// The closed-loop pipeline is full from t=0: every backlog op sits
		// in the core at once, so arrival-order policies see (and charge
		// latecomers for) the whole pipeline depth.
		for k := 0; k < spec.Backlog; k++ {
			c.enqueue(new(op), &t.flow, spec.OpCost, 0)
		}
		if spec.MeanGap > 0 {
			schedule(t.nextGap(), false, t)
		}
	}

	var now time.Duration
	var busy time.Duration
	var running *simTenant
	var runningOp *op

	// start grants o the device at instant now.
	start := func(o *op) {
		t := o.f.owner.(*simTenant)
		t.waits.Record(now - o.enqueuedAt)
		t.served++
		running = t
		runningOp = o
		end := now + t.spec.OpCost
		if capped := cfg.Duration; now < capped {
			w := t.spec.OpCost
			if end > capped {
				w = capped - now
			}
			busy += w
		}
		schedule(end, true, t)
	}
	// dispatch starts the next granted op if the device is idle.
	dispatch := func() {
		if running != nil {
			return
		}
		if o := c.pick(); o != nil {
			start(o)
		}
	}

	// Kick the device: a pure closed-loop mix has no arrival events, only
	// the completion chain this first grant starts.
	dispatch()

	for evq.Len() > 0 {
		ev := evq.pop()
		now = ev.at
		t := ev.tenant
		if !ev.complete {
			// Open-loop arrival of one op.
			if now > cfg.Duration {
				continue // arrival window over; stop generating
			}
			c.enqueue(new(op), &t.flow, t.spec.OpCost, now)
			schedule(now+t.nextGap(), false, t)
			dispatch()
			continue
		}
		// Completion of t's running op.
		c.charge(runningOp, t.spec.OpCost)
		running = nil
		runningOp = nil
		if t.spec.Backlog > 0 && now < cfg.Duration {
			// Closed loop: the pipeline refills instantly at the boundary.
			c.enqueue(new(op), &t.flow, t.spec.OpCost, now)
		}
		dispatch()
	}

	res := &SimResult{Policy: cfg.Policy}
	classW := [NumClasses]*stats.DurationHistogram{}
	classServed := [NumClasses]uint64{}
	for i := range classW {
		classW[i] = stats.NewDurationHistogram()
	}
	for _, t := range tenants {
		name := t.spec.Name
		if name == "" {
			name = fmt.Sprintf("tenant-%s", t.class)
		}
		res.Tenants = append(res.Tenants, TenantResult{
			Name:     name,
			Class:    t.class,
			Served:   t.served,
			WaitP50:  t.waits.Percentile(50),
			WaitP99:  t.waits.Percentile(99),
			WaitMax:  t.waits.Max(),
			WaitMean: t.waits.Mean(),
		})
		res.TotalServed += t.served
		classW[t.class].Merge(t.waits)
		classServed[t.class] += t.served
	}
	for i := range classW {
		if classServed[i] == 0 {
			continue
		}
		res.Classes = append(res.Classes, ClassResult{
			Class:    Class(i),
			Served:   classServed[i],
			WaitP50:  classW[i].Percentile(50),
			WaitP99:  classW[i].Percentile(99),
			WaitMax:  classW[i].Max(),
			WaitMean: classW[i].Mean(),
		})
	}
	for i := range c.preempted {
		res.Preemptions += c.preempted[i]
	}
	res.BusyFrac = float64(busy) / float64(cfg.Duration)
	return res
}

// nextGap draws the tenant's next exponential interarrival gap.
func (t *simTenant) nextGap() time.Duration {
	g := time.Duration(t.rng.ExpFloat64() * float64(t.spec.MeanGap))
	if g < time.Nanosecond {
		g = time.Nanosecond
	}
	return g
}
