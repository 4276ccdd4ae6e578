package sched

import (
	"fmt"
	"time"
)

// Scenario is one named, fully pinned tenant mix: the rows of
// BENCH_sched.json, which the report's campaign writes and gates, and
// EXPERIMENTS.md quotes. Both policies run the same mix from the same seed,
// so the only variable is the grant order.
type Scenario struct {
	Name     string
	Seed     int64
	Duration time.Duration
	// Tenants builds the mix.
	Tenants func() []TenantSpec
}

// Config returns the scenario's SimConfig under policy p.
func (s Scenario) Config(p Policy) SimConfig {
	return SimConfig{Seed: s.Seed, Policy: p, Duration: s.Duration, Tenants: s.Tenants()}
}

// MinRealtimeP99Improvement is the fairness floor of the starvation
// scenarios: WFQ must cut the realtime class's p99 queue wait to at most a
// fifth of FIFO's. The report's scheduler suite gates BENCH_sched.json on
// it.
const MinRealtimeP99Improvement = 5

// ClassP99 returns class c's p99 queue wait in r, 0 when r has no op of
// that class.
func (r *SimResult) ClassP99(c Class) time.Duration {
	for _, cr := range r.Classes {
		if cr.Class == c {
			return cr.WaitP99
		}
	}
	return 0
}

// ThroughputDelta is |wfq-fifo|/fifo over the total ops each run served,
// 0 when fifo served none: the cost in throughput of WFQ's order.
func ThroughputDelta(fifo, wfq *SimResult) float64 {
	if fifo.TotalServed == 0 {
		return 0
	}
	d := float64(int64(wfq.TotalServed) - int64(fifo.TotalServed))
	if d < 0 {
		d = -d
	}
	return d / float64(fifo.TotalServed)
}

// Scenarios returns the pinned scenarios in BENCH_sched.json order.
func Scenarios() []Scenario {
	return []Scenario{
		// The headline: one bulk tenant with a 64-deep pipeline of 500µs
		// ops, eight realtime tenants each firing a sporadic 50µs op every
		// ~2ms. Under FIFO every realtime op queues behind the whole
		// pipeline; under WFQ the realtime class's 100x weight lifts it past
		// the backlog at the next op boundary.
		{Name: "starvation-1bulk-8rt", Seed: 7, Duration: 5 * time.Second, Tenants: starvation(8, 2*time.Millisecond)},
		// Same shape at 32 tenants: the improvement must hold when the
		// latency-sensitive population itself carries real load.
		{Name: "starvation-1bulk-32rt", Seed: 11, Duration: 5 * time.Second, Tenants: starvation(32, 8*time.Millisecond)},
		// Weight proportionality inside one class: two saturating batch
		// tenants at 2:1 session weights must split the device 2:1 under
		// WFQ (FIFO splits it 1:1 — recorded for contrast).
		{Name: "weighted-share-2to1", Seed: 3, Duration: 2 * time.Second, Tenants: func() []TenantSpec {
			return []TenantSpec{bulk("heavy", 2, 16, 200*time.Microsecond), bulk("light", 1, 16, 200*time.Microsecond)}
		}},
	}
}

// starvation mixes one greedy bulk pipeline with n realtime tenants, each
// firing a sporadic 50µs op every gap on average.
func starvation(n int, gap time.Duration) func() []TenantSpec {
	return func() []TenantSpec {
		ts := []TenantSpec{bulk("bulk", 1, 64, 500*time.Microsecond)}
		for i := 0; i < n; i++ {
			ts = append(ts, TenantSpec{
				Name: fmt.Sprintf("rt-%d", i), Class: Realtime, Weight: 1,
				OpCost: 50 * time.Microsecond, MeanGap: gap,
			})
		}
		return ts
	}
}

// bulk is a batch-class tenant whose backlog keeps the device saturated —
// exactly what FIFO makes everyone wait behind.
func bulk(name string, weight uint32, backlog int, opCost time.Duration) TenantSpec {
	return TenantSpec{Name: name, Class: Batch, Weight: weight, OpCost: opCost, Backlog: backlog}
}
