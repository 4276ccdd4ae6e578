// Package sched is the daemon's per-device multi-tenant scheduler. The
// paper's server time-multiplexes one GPU across many remote clients in
// strict arrival order, which lets a single greedy tenant — one that keeps
// a deep pipeline of launches queued — starve every latency-sensitive
// session behind it. This package replaces arrival order with virtual-time
// weighted fair queueing over *estimated op cost*, layered with priority
// classes, while preserving the middleware's bit-exactness guarantee: the
// scheduler only ever reorders work at op boundaries (between kernel
// launches, copies, and the like), never inside one.
//
// Three layers share one decision core:
//
//   - core (this file): a deterministic, lock-free start-time fair queueing
//     state machine. Every flow (one session on one device) carries a
//     virtual finish tag; the next op granted is the waiting op with the
//     smallest tag, ties broken by arrival sequence. Priority classes are
//     weight multipliers (DefaultClassWeights), so `realtime` dominates
//     `batch` dominates `besteffort` without ever starving the lowest
//     class — a fairness-owed besteffort flow still drains at its share.
//   - Queue (queue.go): the concurrent wrapper the rcuda server gates
//     dispatch through, recording per-class queue-wait histograms and
//     serviced/preemption counters. Its mutex is never held across any
//     blocking call (enforced by the locknet analyzer).
//   - Simulate (sim.go): a goroutine-free event-driven harness that drives
//     the same core on a virtual clock, giving the reproducible
//     FIFO-vs-WFQ starvation numbers in BENCH_sched.json.
package sched

import (
	"fmt"
	"time"
)

// Class is a session's scheduling class. The zero value is Realtime; the
// ordering of the constants is the priority ordering, which also indexes
// the per-class weight and accounting arrays.
type Class uint8

// Scheduling classes, highest priority first.
const (
	// Realtime is for latency-sensitive sessions (interactive inference,
	// the paper's many-small-launches AI traffic shape).
	Realtime Class = iota
	// Batch is the default class: throughput-oriented but deadline-aware.
	Batch
	// BestEffort yields to everything else, receiving only the share its
	// (low) class weight guarantees.
	BestEffort
	// NumClasses sizes per-class arrays.
	NumClasses = 3
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Realtime:
		return "realtime"
	case Batch:
		return "batch"
	case BestEffort:
		return "besteffort"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Policy selects the grant order.
type Policy int

// Policies.
const (
	// FIFO grants ops strictly in arrival order — the paper's original
	// behavior, kept as the benchmark baseline.
	FIFO Policy = iota
	// WFQ grants the waiting op with the smallest virtual finish tag,
	// weighted by class and session weight.
	WFQ
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case WFQ:
		return "wfq"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps a policy name (as printed by String) to its value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo":
		return FIFO, nil
	case "wfq":
		return WFQ, nil
	default:
		return 0, fmt.Errorf("sched: unknown policy %q", s)
	}
}

// DefaultClassWeights are the per-class weight multipliers: a realtime op
// accrues virtual time 100x slower than a besteffort op of equal cost, so
// it is effectively always ahead — but the lowest class still owns 1 part
// in 111 of a saturated device, which is what keeps it starvation-free.
var DefaultClassWeights = [NumClasses]uint32{100, 10, 1}

// Config parameterizes a Queue or a core.
type Config struct {
	// Policy selects FIFO or WFQ; the zero value is FIFO.
	Policy Policy
	// ClassWeights overrides DefaultClassWeights; zero entries keep the
	// default for that class.
	ClassWeights [NumClasses]uint32
}

// classWeights resolves the effective per-class multipliers.
func (cfg Config) classWeights() [NumClasses]uint32 {
	w := cfg.ClassWeights
	for i := range w {
		if w[i] == 0 {
			w[i] = DefaultClassWeights[i]
		}
	}
	return w
}

// flow is one session's scheduling identity on one device. It is embedded
// in the exported handle types (Session, sim tenants) and owned by a
// single core; all fields are guarded by whatever guards that core.
type flow struct {
	// owner points back to the handle embedding this flow (a *Session, or
	// a simulation tenant); set once at creation, it lets the picker hand
	// back the caller's own type without an index.
	owner any

	class  Class
	weight uint32
	// vtail is the virtual finish tag of the flow's most recently admitted
	// op; the next op's start tag is max(core vtime, vtail), so a flow's
	// own ops serialize in virtual time while an idle flow re-enters at
	// the current virtual time instead of collecting credit while absent.
	vtail float64
	// queued counts the flow's ops currently waiting in the core — a
	// session with an asynchronous pipeline keeps several queued, and a
	// grant to someone else while queued > 0 is what the preemption
	// counter records.
	queued int
}

// op is one queued unit of work: the scheduler's granularity and therefore
// the preemption granularity — ops are never split or reordered within a
// flow, which is what keeps execution bit-exact.
type op struct {
	f      *flow
	vstart float64
	vfin   float64
	seq    uint64
	cost   time.Duration
	// enqueuedAt is the clock instant the op arrived, recorded by the
	// Queue/sim for wait accounting.
	enqueuedAt time.Duration
}

// core is the deterministic scheduling state machine shared by the
// concurrent Queue and the simulation harness. It is not safe for
// concurrent use; Queue guards it with its mutex.
type core struct {
	policy Policy
	classW [NumClasses]uint32
	// vtime is the virtual clock: the start tag of the op most recently
	// granted. It is non-decreasing (asserted by the unit tests).
	vtime float64
	// seq numbers op arrivals; the deterministic tie-break.
	seq uint64
	// queue holds the waiting ops in arrival order. Scans are linear: the
	// queue length is bounded by the ops concurrently outstanding on one
	// device, far below any regime where a heap would matter.
	queue []*op
	// last is the flow granted most recently; used for preemption
	// accounting (see pick).
	last *flow
	// preempted counts, per class, grants where the previously running
	// flow had more work queued and the device was handed to another flow
	// anyway — a yield at an op boundary.
	preempted [NumClasses]uint64
}

func newCore(cfg Config) core {
	return core{policy: cfg.Policy, classW: cfg.classWeights()}
}

// effWeight is the flow's effective WFQ weight: class multiplier times
// session weight (session weight 0 reads as 1).
func (c *core) effWeight(f *flow) float64 {
	w := f.weight
	if w == 0 {
		w = 1
	}
	cw := c.classW[f.class%NumClasses]
	return float64(cw) * float64(w)
}

// enqueue adds an op of the given estimated cost for f at clock instant
// at, stamping its virtual tags and arrival sequence. The op is built in o,
// storage the caller owns until the op has been picked and charged (or
// removed): a Session, which has one op at a time, hands in its own.
func (c *core) enqueue(o *op, f *flow, cost, at time.Duration) *op {
	if cost < 0 {
		cost = 0
	}
	*o = op{f: f, cost: cost, seq: c.seq, enqueuedAt: at}
	c.seq++
	o.vstart = c.vtime
	if f.vtail > o.vstart {
		o.vstart = f.vtail
	}
	o.vfin = o.vstart + float64(cost)/c.effWeight(f)
	f.vtail = o.vfin
	f.queued++
	c.queue = append(c.queue, o)
	return o
}

// better reports whether a should be granted before b under the policy.
// The order is total and deterministic: virtual finish tag, then class
// priority, then arrival sequence (unique).
func (c *core) better(a, b *op) bool {
	if c.policy == WFQ {
		if a.vfin != b.vfin {
			return a.vfin < b.vfin
		}
		if a.f.class != b.f.class {
			return a.f.class < b.f.class
		}
	}
	return a.seq < b.seq
}

// pick removes and returns the next op to grant, nil when none waits. It
// advances the virtual clock to the granted op's start tag and accounts a
// preemption against the previously running flow if that flow wanted the
// device back and lost it.
func (c *core) pick() *op {
	if len(c.queue) == 0 {
		c.last = nil
		return nil
	}
	best := 0
	for i := 1; i < len(c.queue); i++ {
		if c.better(c.queue[i], c.queue[best]) {
			best = i
		}
	}
	o := c.queue[best]
	c.queue = append(c.queue[:best], c.queue[best+1:]...)
	o.f.queued--
	if o.vstart > c.vtime {
		c.vtime = o.vstart
	}
	if c.last != nil && c.last != o.f && c.last.queued > 0 {
		c.preempted[c.last.class%NumClasses]++
	}
	c.last = o.f
	return o
}

// charge settles a completed op against its flow using the actual service
// time: the difference to the estimate shifts the flow's tail tag, so a
// mispredicted cost cannot permanently skew a flow's share. The tail never
// retreats below the op's own start, keeping virtual time monotone for
// the flow's future ops.
func (c *core) charge(o *op, actual time.Duration) {
	if actual < 0 {
		actual = 0
	}
	f := o.f
	f.vtail += (float64(actual) - float64(o.cost)) / c.effWeight(f)
	if f.vtail < o.vstart {
		f.vtail = o.vstart
	}
}

// remove drops a still-queued op (an aborted Acquire).
func (c *core) remove(o *op) {
	for i, q := range c.queue {
		if q == o {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			o.f.queued--
			return
		}
	}
}
