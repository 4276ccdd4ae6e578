package rcuda

import (
	"time"

	"rcuda/internal/protocol"
	"rcuda/internal/sched"
	"rcuda/internal/stats"
)

// This file wires the per-device multi-tenant scheduler (internal/sched)
// into the daemon. With WithScheduler enabled, every device-touching
// request passes through the device's sched.Queue: the handler acquires
// the device for one op (blocking until the virtual-time scheduler grants
// it), dispatches, and releases at the op boundary — the only preemption
// point, so execution inside an op stays bit-exact. Sessions declare a
// class and weight in their extended hello; both survive park/reattach
// (same struct) and live migration (checkpoint fields).

// Scheduling class wire codes, re-exported so applications configuring a
// client do not import internal/protocol.
const (
	SchedRealtime   = protocol.SchedClassRealtime
	SchedBatch      = protocol.SchedClassBatch
	SchedBestEffort = protocol.SchedClassBestEffort
)

// WithScheduler enables the multi-tenant device scheduler with the given
// policy. sched.FIFO gates dispatch in strict arrival order (the paper's
// behavior, made explicit); sched.WFQ is weighted fair queueing over
// estimated op cost with priority classes. Without this option requests
// dispatch exactly as before: unscheduled, in each connection's own loop.
func WithScheduler(policy sched.Policy) ServerOption {
	return func(s *Server) {
		s.schedOn = true
		s.schedCfg.Policy = policy
	}
}

// WithClassWeights overrides sched.DefaultClassWeights for this daemon's
// queues; zero entries keep the default for that class. Implies nothing
// unless WithScheduler is also given.
func WithClassWeights(w [sched.NumClasses]uint32) ServerOption {
	return func(s *Server) { s.schedCfg.ClassWeights = w }
}

// classFromWire maps a hello/checkpoint class code to the scheduler's
// class; unspecified (and anything unrecognized, which decoders reject
// anyway) reads as the Batch default.
func classFromWire(code uint32) sched.Class {
	switch code {
	case protocol.SchedClassRealtime:
		return sched.Realtime
	case protocol.SchedClassBestEffort:
		return sched.BestEffort
	default:
		return sched.Batch
	}
}

// classToWire maps a scheduler class back to its wire code.
func classToWire(c sched.Class) uint32 {
	switch c {
	case sched.Realtime:
		return protocol.SchedClassRealtime
	case sched.BestEffort:
		return protocol.SchedClassBestEffort
	default:
		return protocol.SchedClassBatch
	}
}

// schedKinds maps the op table's scheduler column (protocol.SchedCost) to
// the cost model's bucket. protocol.SchedNone has no entry: such a request
// — session control, monitoring, device discovery — never touches device
// state and bypasses the queue.
var schedKinds = [...]sched.OpKind{
	protocol.SchedLaunch: sched.KindLaunch,
	protocol.SchedCopy:   sched.KindCopy,
	protocol.SchedSync:   sched.KindSync,
	protocol.SchedBatch:  sched.KindBatch,
	protocol.SchedOther:  sched.KindOther,
}

// flowOn returns the session's scheduling handle on device d, registering
// it on first use. Only the session's handler goroutine calls this.
func (ss *session) flowOn(d int) *sched.Session {
	if fl, ok := ss.flows[d]; ok {
		return fl
	}
	fl := ss.srv.queues[d].Register(ss.schedClass, ss.schedWeight)
	if ss.flows == nil {
		ss.flows = make(map[int]*sched.Session)
	}
	ss.flows[d] = fl
	return fl
}

// applySchedParams updates the session's class/weight from an extended
// hello or a restored checkpoint, moving the per-class attached gauge and
// re-classing any flows already registered. moveGauge is false when the
// session is not attached yet (checkpoint restore); the gauge then moves
// when the session attaches. Only the handler goroutine (or the restore
// path, before the session is shared) calls this.
func (s *Server) applySchedParams(sess *session, wireClass, weight uint32, moveGauge bool) {
	class := sess.schedClass
	if wireClass != protocol.SchedClassUnspecified {
		class = classFromWire(wireClass)
	}
	if weight == 0 {
		// Zero is "unspecified" on the wire (the scheduler reads a weight of
		// 0 as 1 anyway), so a bare hello never resets a declared weight.
		weight = sess.schedWeight
	}
	if class == sess.schedClass && weight == sess.schedWeight {
		return
	}
	if moveGauge && class != sess.schedClass {
		s.classAttached[sess.schedClass%sched.NumClasses].Add(-1)
		s.classAttached[class%sched.NumClasses].Add(1)
	}
	sess.schedClass = class
	sess.schedWeight = weight
	if s.schedOn {
		// All flows of one session live on this server's queues; SetClass
		// re-tags each under its own queue's lock.
		for d, fl := range sess.flows {
			s.queues[d].SetClass(fl, class, weight)
		}
	}
}

// ClassUsage is one scheduling class's slice of a StatsSnapshot, merged
// across the daemon's devices.
type ClassUsage struct {
	Class sched.Class
	// Sessions counts attached sessions that declared the class.
	Sessions int
	// Served counts ops granted; Preempted counts op-boundary yields where
	// a session of this class with more work queued lost the device.
	Served    uint64
	Preempted uint64
	// WaitP50 and WaitP99 are queue-wait percentiles on the devices'
	// clocks; WaitMax is the worst grant delay observed.
	WaitP50 time.Duration
	WaitP99 time.Duration
	WaitMax time.Duration
}

// classUsage merges the per-device queue snapshots into per-class rows.
// Returns nil when the scheduler is off.
func (s *Server) classUsage() []ClassUsage {
	if !s.schedOn {
		return nil
	}
	var served, preempted [sched.NumClasses]uint64
	var waits [sched.NumClasses]*stats.DurationHistogram
	for i := range waits {
		waits[i] = stats.NewDurationHistogram()
	}
	for _, q := range s.queues {
		snap := q.Snapshot()
		for i := range snap {
			served[i] += snap[i].Served
			preempted[i] += snap[i].Preempted
			waits[i].Merge(snap[i].Waits)
		}
	}
	out := make([]ClassUsage, 0, sched.NumClasses)
	for i := range waits {
		out = append(out, ClassUsage{
			Class:     sched.Class(i),
			Sessions:  int(clampGauge(s.classAttached[i].Load())),
			Served:    served[i],
			Preempted: preempted[i],
			WaitP50:   waits[i].Percentile(50),
			WaitP99:   waits[i].Percentile(99),
			WaitMax:   waits[i].Max(),
		})
	}
	return out
}
