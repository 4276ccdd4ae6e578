package sched

import (
	"sync"
	"time"

	"rcuda/internal/calib"
)

// OpKind buckets requests for cost estimation. The scheduler does not need
// per-kernel accuracy — WFQ self-corrects by charging actual service time
// at release (core.charge) — it needs a stable relative ordering of op
// costs so virtual finish tags are meaningful at enqueue time.
type OpKind uint8

// Op-cost buckets.
const (
	// KindLaunch covers kernel launches (sync and async).
	KindLaunch OpKind = iota
	// KindCopy covers host/device memory movement; its prior is the
	// payload's PCIe transfer (calib.PCIeTransfer).
	KindCopy
	// KindSync covers synchronization points, whose cost is the drain of
	// previously queued asynchronous work.
	KindSync
	// KindBatch covers OpBatch frames: many launches charged as one
	// scheduling quantum (the preemption point stays between frames).
	KindBatch
	// KindOther covers cheap bookkeeping ops (mallocs, frees, events).
	KindOther
	numKinds
)

// CostModel estimates per-kind op service time. Priors come from the
// device's timing model (copies at the PCIe price the simulated device
// charges, launches at a nominal kernel time); every observed dispatch
// refines the kind's estimate with an EWMA, so the model tracks the actual
// tenant mix. Safe for concurrent use.
type CostModel struct {
	mu  sync.Mutex
	ewa [numKinds]time.Duration
}

// DefaultOpCost is the prior for compute-ish ops before any observation:
// the order of the paper's small-kernel service times.
const DefaultOpCost = 100 * time.Microsecond

// ewmaShift is the EWMA decay: new = old + (obs-old)/2^ewmaShift.
const ewmaShift = 3

// NewCostModel creates a cost model with no observations yet.
func NewCostModel() *CostModel { return &CostModel{} }

// Estimate returns the expected service time of an op of the given kind
// moving the given payload bytes (0 for non-copies).
func (m *CostModel) Estimate(kind OpKind, bytes int) time.Duration {
	if kind >= numKinds {
		kind = KindOther
	}
	m.mu.Lock()
	est := m.ewa[kind]
	m.mu.Unlock()
	if est > 0 {
		return est
	}
	if kind == KindCopy && bytes > 0 {
		return calib.PCIeTransfer(int64(bytes))
	}
	if kind == KindOther {
		return DefaultOpCost / 10
	}
	return DefaultOpCost
}

// Observe folds an op's measured service time into its kind's estimate.
func (m *CostModel) Observe(kind OpKind, actual time.Duration) {
	if actual <= 0 || kind >= numKinds {
		return
	}
	m.mu.Lock()
	if m.ewa[kind] == 0 {
		m.ewa[kind] = actual
	} else {
		m.ewa[kind] += (actual - m.ewa[kind]) >> ewmaShift
	}
	m.mu.Unlock()
}
