package loadgen

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rcuda/internal/broker"
	"rcuda/internal/faults"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.json from this build")

// namedConfig is a test run's name and a builder of its Config.
type namedConfig struct {
	name  string
	build func() Config
}

// goldenConfigs are three small seeded runs that between them reach every
// placement path: a bursty all-durable load whose autoscaler drains daemons
// by migration, the class-aware policy over a scheduling-class mix, and a
// fault plan with kills, stalls and stale probes. build returns a fresh
// Config each call because fault plans are stateful.
var goldenConfigs = []namedConfig{
	{"bursty_migrate", func() Config {
		return Config{
			Seed: 11, Sessions: 3_000, Arrival: BurstyOnOff, Rate: 6_000,
			BurstOnMean: 200 * time.Millisecond, BurstOffMean: 200 * time.Millisecond,
			BurstFactor:    6,
			Classes:        []Class{{Name: "train", Weight: 1, HoldMean: 120 * time.Millisecond, Durable: true}},
			InitialDaemons: 2, DaemonCapacity: 16,
			Autoscale: &broker.AutoscalerConfig{
				Min: 2, Max: 24, DaemonCapacity: 16, Cooldown: 100 * time.Millisecond,
				DownThreshold: 0.6,
			},
		}
	}},
	{"class_aware", func() Config {
		return Config{
			Seed: 12, Sessions: 5_000, Arrival: Poisson, Rate: 20_000,
			Classes: schedMix(), Policy: broker.ClassAware,
			InitialDaemons: 2, DaemonCapacity: 32,
			Autoscale: &broker.AutoscalerConfig{
				Min: 2, Max: 16, DaemonCapacity: 32, Cooldown: 250 * time.Millisecond,
			},
		}
	}},
	{"fault_plan", func() Config {
		return Config{
			Seed: 13, Sessions: 12_000, Arrival: BurstyOnOff, Rate: 6_000, BurstFactor: 4,
			Classes: []Class{
				{Name: "train", Weight: 1, HoldMean: 150 * time.Millisecond, Durable: true},
				{Name: "infer", Weight: 3, HoldMean: 30 * time.Millisecond, Durable: false},
			},
			InitialDaemons: 3, DaemonCapacity: 24,
			Autoscale: &broker.AutoscalerConfig{
				Min: 3, Max: 16, DaemonCapacity: 24, Cooldown: 200 * time.Millisecond,
			},
			FaultPlan: faults.Seeded(14, faults.Config{ResetRate: 0.02, StallRate: 0.03, LatencyRate: 0.05}),
		}
	}},
}

// TestGoldenResults pins everything a run reports to JSON written with
// -update-golden. A change that moves who lands where or when fails here,
// and so does one that brings back a placement walk of a full fleet: spills
// are compared exactly.
func TestGoldenResults(t *testing.T) {
	for _, gc := range goldenConfigs {
		t.Run(gc.name, func(t *testing.T) {
			got, err := Run(gc.build())
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden_"+gc.name+".json")
			if *updateGolden {
				b, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want Result
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatal(err)
			}
			gj, _ := json.MarshalIndent(got, "", "  ")
			wj, _ := json.MarshalIndent(&want, "", "  ")
			if string(gj) != string(wj) {
				t.Errorf("result differs from the golden\n got: %s\nwant: %s", gj, wj)
			}
		})
	}
}
