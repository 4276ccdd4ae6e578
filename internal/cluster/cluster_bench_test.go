package cluster

import (
	"testing"
	"time"

	"rcuda/internal/netsim"
	"rcuda/internal/raceflag"
)

// TestSimulateAllocations gates the model work of one simulation on
// BenchmarkSimulate64Jobs's shape: each job is profiled once, a full
// analytic workload.Run of about ten allocations, and the rest is the
// schedule's slices. The bound is the go1.24 reading, 689, plus about
// 5 %; profiling each job a second time for its service read 1 366.
func TestSimulateAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	jobs := GenerateTrace(TraceConfig{Jobs: 64, MeanInterarrival: 10 * time.Second, MMFraction: 0.8, Seed: 1})
	cfg := Config{Nodes: 16, GPUs: 4, Network: netsim.IB40G()}
	n := testing.AllocsPerRun(5, func() {
		if _, err := Simulate(cfg, jobs); err != nil {
			t.Fatal(err)
		}
	})
	if n > 725 {
		t.Errorf("%.0f allocations per 64-job simulation, want at most 725", n)
	} else {
		t.Logf("%.0f allocations per 64-job simulation", n)
	}
}

func BenchmarkSimulate64Jobs(b *testing.B) {
	jobs := GenerateTrace(TraceConfig{Jobs: 64, MeanInterarrival: 10 * time.Second, MMFraction: 0.8, Seed: 1})
	cfg := Config{Nodes: 16, GPUs: 4, Network: netsim.IB40G()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		jobs := GenerateTrace(TraceConfig{Jobs: 256, MeanInterarrival: time.Second, MMFraction: 0.5, Seed: int64(i)})
		if len(jobs) != 256 {
			b.Fatal("short trace")
		}
	}
}
