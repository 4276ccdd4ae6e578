package cluster

import (
	"testing"
	"time"

	"rcuda/internal/netsim"
)

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
