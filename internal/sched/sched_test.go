package sched

import (
	"math/rand"
	"testing"
	"time"

	"rcuda/internal/calib"
)

func TestPolicyStringParseRoundTrip(t *testing.T) {
	for _, p := range []Policy{FIFO, WFQ} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown policy")
	}
}

// TestVirtualTimeMonotone drives the core with a seeded random op mix and
// asserts the virtual clock never moves backwards across grants.
func TestVirtualTimeMonotone(t *testing.T) {
	for _, policy := range []Policy{FIFO, WFQ} {
		c := newCore(Config{Policy: policy})
		rng := rand.New(rand.NewSource(7))
		flows := make([]*flow, 5)
		for i := range flows {
			flows[i] = &flow{class: Class(i % NumClasses), weight: uint32(1 + i)}
		}
		lastV := c.vtime
		for step := 0; step < 2000; step++ {
			f := flows[rng.Intn(len(flows))]
			if f.queued < 4 {
				c.enqueue(new(op), f, time.Duration(rng.Intn(1000)+1)*time.Microsecond, 0)
			}
			if rng.Intn(2) == 0 {
				if g := c.pick(); g != nil {
					if c.vtime < lastV {
						t.Fatalf("%v: virtual time moved backwards: %v -> %v", policy, lastV, c.vtime)
					}
					lastV = c.vtime
					c.charge(g, g.cost)
				}
			}
		}
	}
}

// TestWeightProportionalShares saturates one device with two same-class
// closed-loop tenants at 2:1 weights and equal op cost; served ops must
// split 2:1 within tolerance.
func TestWeightProportionalShares(t *testing.T) {
	res := Simulate(SimConfig{
		Seed:     1,
		Policy:   WFQ,
		Duration: 2 * time.Second,
		Tenants: []TenantSpec{
			{Name: "heavy", Class: Batch, Weight: 2, OpCost: time.Millisecond, Backlog: 4},
			{Name: "light", Class: Batch, Weight: 1, OpCost: time.Millisecond, Backlog: 4},
		},
	})
	var heavy, light uint64
	for _, tr := range res.Tenants {
		switch tr.Name {
		case "heavy":
			heavy = tr.Served
		case "light":
			light = tr.Served
		}
	}
	if light == 0 {
		t.Fatal("light tenant served nothing")
	}
	ratio := float64(heavy) / float64(light)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("2:1 weights served %d:%d (ratio %.2f), want ~2.0", heavy, light, ratio)
	}
}

// TestClassWeightedShares checks the priority-class multipliers divide a
// saturated device in proportion to DefaultClassWeights.
func TestClassWeightedShares(t *testing.T) {
	res := Simulate(SimConfig{
		Seed:     1,
		Policy:   WFQ,
		Duration: 2 * time.Second,
		Tenants: []TenantSpec{
			{Name: "rt", Class: Realtime, OpCost: time.Millisecond, Backlog: 4},
			{Name: "ba", Class: Batch, OpCost: time.Millisecond, Backlog: 4},
		},
	})
	var rt, ba uint64
	for _, tr := range res.Tenants {
		switch tr.Name {
		case "rt":
			rt = tr.Served
		case "ba":
			ba = tr.Served
		}
	}
	if ba == 0 {
		t.Fatal("batch tenant served nothing")
	}
	// DefaultClassWeights give realtime 100x batch's 10: a 10:1 split.
	ratio := float64(rt) / float64(ba)
	if ratio < 8 || ratio > 12 {
		t.Fatalf("realtime:batch served %d:%d (ratio %.2f), want ~10", rt, ba, ratio)
	}
}

// TestNoStarvationLowestClass saturates the device with higher classes and
// asserts besteffort still gets its weighted share — classes are weight
// multipliers, not absolute priorities.
func TestNoStarvationLowestClass(t *testing.T) {
	res := Simulate(SimConfig{
		Seed:     3,
		Policy:   WFQ,
		Duration: 4 * time.Second,
		Tenants: []TenantSpec{
			{Name: "rt", Class: Realtime, OpCost: 500 * time.Microsecond, Backlog: 8},
			{Name: "ba", Class: Batch, OpCost: 500 * time.Microsecond, Backlog: 8},
			{Name: "be", Class: BestEffort, OpCost: 500 * time.Microsecond, Backlog: 8},
		},
	})
	var be uint64
	for _, tr := range res.Tenants {
		if tr.Name == "be" {
			be = tr.Served
		}
	}
	if be == 0 {
		t.Fatal("besteffort starved under saturation")
	}
	// Weighted share: 1/111 of ~8000 total ops ≈ 72. Allow slack, but the
	// share must be material, not a single token grant.
	if be < 20 {
		t.Fatalf("besteffort served only %d ops, want its ~1/111 share", be)
	}
}

// TestDeterministicTieBreak asserts both that equal-tag ops resolve by
// arrival order and that a whole seeded scenario replays identically.
func TestDeterministicTieBreak(t *testing.T) {
	// Two identical flows enqueued back-to-back on a fresh core carry
	// identical virtual finish tags; arrival sequence must decide.
	c := newCore(Config{Policy: WFQ})
	a := &flow{class: Batch, weight: 1}
	b := &flow{class: Batch, weight: 1}
	oa := c.enqueue(new(op), a, time.Millisecond, 0)
	c.enqueue(new(op), b, time.Millisecond, 0)
	if got := c.pick(); got != oa {
		t.Fatal("equal tags: second arrival granted before first")
	}
	// Same tag, different class: the higher class wins the tie.
	c2 := newCore(Config{Policy: WFQ, ClassWeights: [NumClasses]uint32{1, 1, 1}})
	lo := &flow{class: BestEffort}
	hi := &flow{class: Realtime}
	c2.enqueue(new(op), lo, time.Millisecond, 0)
	ohi := c2.enqueue(new(op), hi, time.Millisecond, 0)
	if got := c2.pick(); got != ohi {
		t.Fatal("equal tags: lower class granted before higher")
	}

	// Whole-scenario determinism under a fixed seed.
	cfg := SimConfig{
		Seed:     42,
		Policy:   WFQ,
		Duration: time.Second,
		Tenants: []TenantSpec{
			{Name: "bulk", Class: Batch, OpCost: 2 * time.Millisecond, Backlog: 16},
			{Name: "rt-0", Class: Realtime, OpCost: 100 * time.Microsecond, MeanGap: 5 * time.Millisecond},
			{Name: "rt-1", Class: Realtime, OpCost: 100 * time.Microsecond, MeanGap: 7 * time.Millisecond},
		},
	}
	r1, r2 := Simulate(cfg), Simulate(cfg)
	if len(r1.Tenants) != len(r2.Tenants) {
		t.Fatal("runs disagree on tenant count")
	}
	for i := range r1.Tenants {
		if r1.Tenants[i] != r2.Tenants[i] {
			t.Fatalf("seeded runs diverged: %+v != %+v", r1.Tenants[i], r2.Tenants[i])
		}
	}
	if r1.TotalServed != r2.TotalServed || r1.Preemptions != r2.Preemptions {
		t.Fatalf("seeded runs diverged on totals: %+v != %+v", r1, r2)
	}
}

// TestFIFOIsArrivalOrder pins the baseline policy to strict arrival order
// regardless of class or weight.
func TestFIFOIsArrivalOrder(t *testing.T) {
	c := newCore(Config{Policy: FIFO})
	be := &flow{class: BestEffort}
	rt := &flow{class: Realtime, weight: 1000}
	obe := c.enqueue(new(op), be, time.Second, 0)
	c.enqueue(new(op), rt, time.Microsecond, 0)
	if got := c.pick(); got != obe {
		t.Fatal("FIFO reordered arrivals")
	}
}

// TestPreemptionAccounting verifies the preemption counter: a flow with
// more work queued that loses the device at an op boundary is counted.
func TestPreemptionAccounting(t *testing.T) {
	c := newCore(Config{Policy: WFQ})
	bulk := &flow{class: BestEffort}
	rt := &flow{class: Realtime}
	o1 := c.enqueue(new(op), bulk, time.Millisecond, 0)
	if c.pick() != o1 {
		t.Fatal("lone flow not granted")
	}
	c.charge(o1, time.Millisecond)
	// While bulk ran, both re-queued; rt's tag is far smaller.
	c.enqueue(new(op), bulk, time.Millisecond, 0)
	c.enqueue(new(op), rt, 10*time.Microsecond, 0)
	if got := c.pick(); got.f != rt {
		t.Fatal("realtime not granted at the boundary")
	}
	if got := c.preempted[BestEffort]; got != 1 {
		t.Fatalf("besteffort preemptions = %d, want 1", got)
	}
}

func TestCostModel(t *testing.T) {
	m := NewCostModel()
	if got, want := m.Estimate(KindCopy, 1<<20), calib.PCIeTransfer(1<<20); got != want {
		t.Fatalf("copy prior = %v, want the PCIe transfer %v", got, want)
	}
	if got := m.Estimate(KindLaunch, 0); got != DefaultOpCost {
		t.Fatalf("launch prior = %v, want %v", got, DefaultOpCost)
	}
	m.Observe(KindLaunch, 8*time.Millisecond)
	if got := m.Estimate(KindLaunch, 0); got != 8*time.Millisecond {
		t.Fatalf("first observation = %v, want 8ms", got)
	}
	for i := 0; i < 64; i++ {
		m.Observe(KindLaunch, 2*time.Millisecond)
	}
	got := m.Estimate(KindLaunch, 0)
	if got < 2*time.Millisecond || got > 3*time.Millisecond {
		t.Fatalf("EWMA did not converge: %v", got)
	}
}
