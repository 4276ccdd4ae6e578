package loadgen

import (
	"fmt"
	"time"

	"rcuda/internal/broker"
	"rcuda/internal/faults"
	"rcuda/internal/protocol"
)

// Scenario is one named, fully pinned load-generation run: the rows of
// BENCH_loadscale.json, which rcuda-loadgen writes and checks, the runs the
// experiments report re-explains, and this package's benchmarks.
type Scenario struct {
	Name string
	// Build returns a fresh Config each call because fault plans are
	// stateful.
	Build func() Config
}

// StandardMix is the standard offered class mix: long durable training
// sessions and short best-effort inference sessions, 1:3.
func StandardMix() []Class {
	return []Class{
		{Name: "train", Weight: 1, HoldMean: 40 * time.Millisecond, Durable: true},
		{Name: "infer", Weight: 3, HoldMean: 8 * time.Millisecond, Durable: false},
	}
}

// Scenarios returns the pinned scenarios in BENCH_loadscale.json order.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "smoke-poisson", Build: func() Config {
			return Config{
				Seed: 1, Sessions: 10_000, Arrival: Poisson, Rate: 20_000,
				Classes: StandardMix(), InitialDaemons: 4, DaemonCapacity: 64,
				Autoscale: &broker.AutoscalerConfig{
					Min: 4, Max: 32, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
				},
			}
		}},
		{Name: "smoke-bursty-chaos", Build: func() Config {
			return Config{
				Seed: 2, Sessions: 10_000, Arrival: BurstyOnOff, Rate: 12_000,
				BurstFactor: 5, Classes: StandardMix(), InitialDaemons: 4, DaemonCapacity: 64,
				Autoscale: &broker.AutoscalerConfig{
					Min: 4, Max: 32, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
				},
				FaultPlan: faults.Seeded(3, faults.Config{
					ResetRate: 0.004, StallRate: 0.01, LatencyRate: 0.05,
				}),
			}
		}},
		// Long-hold, all-durable load with a strong burst: the autoscaler
		// grows the fleet into the bursts, and on the off-phases scale-down
		// faces daemons still holding live sessions — which it drains by
		// live-migrating the residents instead of vetoing the retirement.
		{Name: "scale-down-migrate", Build: func() Config {
			return Config{
				Seed: 5, Sessions: 10_000, Arrival: BurstyOnOff, Rate: 6_000,
				BurstOnMean: 400 * time.Millisecond, BurstOffMean: 400 * time.Millisecond,
				BurstFactor:    6,
				Classes:        []Class{{Name: "train", Weight: 1, HoldMean: 120 * time.Millisecond, Durable: true}},
				InitialDaemons: 2, DaemonCapacity: 32,
				Autoscale: &broker.AutoscalerConfig{
					Min: 2, Max: 48, DaemonCapacity: 32, Cooldown: 100 * time.Millisecond,
					DownThreshold: 0.6,
				},
			}
		}},
		// Mixed scheduling classes through class-aware placement at 10^5
		// scale: sporadic realtime inference, the batch bulk, best-effort
		// scavengers. The probe loop feeds per-class daemon gauges to the
		// placer, so realtime sessions are steered toward daemons with
		// realtime headroom — the fleet-level half of the per-device
		// scheduler (the per-device half is BENCH_sched.json).
		{Name: "scale-100k-classes", Build: func() Config {
			return Config{
				Seed: 6, Sessions: 100_000, Arrival: Poisson, Rate: 40_000,
				Classes: []Class{
					{Name: "rt", Weight: 1, HoldMean: 5 * time.Millisecond, Durable: true, SchedClass: protocol.SchedClassRealtime},
					{Name: "batch", Weight: 2, HoldMean: 40 * time.Millisecond, Durable: true, SchedClass: protocol.SchedClassBatch},
					{Name: "scavenge", Weight: 1, HoldMean: 20 * time.Millisecond, Durable: false, SchedClass: protocol.SchedClassBestEffort},
				},
				Policy:         broker.ClassAware,
				InitialDaemons: 4, DaemonCapacity: 64,
				Autoscale: &broker.AutoscalerConfig{
					Min: 4, Max: 64, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
				},
			}
		}},
		{Name: "scale-100k", Build: func() Config {
			return Config{
				Seed: 3, Sessions: 100_000, Arrival: Poisson, Rate: 60_000,
				Classes: StandardMix(), InitialDaemons: 4, DaemonCapacity: 64,
				Autoscale: &broker.AutoscalerConfig{
					Min: 4, Max: 64, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
				},
				FaultPlan: faults.Seeded(4, faults.Config{
					ResetRate: 0.002, StallRate: 0.01,
				}),
			}
		}},
	}
}

// ScenarioConfig builds the named scenario's Config. It panics on a name
// Scenarios does not list.
func ScenarioConfig(name string) Config {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc.Build()
		}
	}
	panic(fmt.Sprintf("loadgen: no scenario %q", name))
}
