package cluster

import (
	"math"
	"testing"
	"time"

	"rcuda/internal/netsim"
)

func TestCostModelValidation(t *testing.T) {
	if err := (CostModel{}).validate(); err == nil {
		t.Fatal("zero model must fail")
	}
	m := DefaultCostModel()
	m.GPUIdleFraction = 2
	if err := m.validate(); err == nil {
		t.Fatal("idle fraction > 1 must fail")
	}
	if err := DefaultCostModel().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultModelMatchesPaperPowerClaim(t *testing.T) {
	m := DefaultCostModel()
	if ratio := m.GPUWatts / m.NodeWatts; math.Abs(ratio-0.25) > 1e-9 {
		t.Fatalf("GPU/node power ratio %.3f, paper says ~25%%", ratio)
	}
}

func TestPriceArithmetic(t *testing.T) {
	cfg := Config{Nodes: 4, GPUs: 1, Network: netsim.IB40G()}
	res := Result{
		GPUs:        1,
		Makespan:    time.Hour,
		Utilization: []float64{0.5},
	}
	m := DefaultCostModel()
	got, err := Price(cfg, res, m)
	if err != nil {
		t.Fatal(err)
	}
	// Acquisition: 4 nodes + 1 GPU.
	if want := 4*m.NodeCost + m.GPUCost; got.AcquisitionCost != want {
		t.Fatalf("acquisition %v, want %v", got.AcquisitionCost, want)
	}
	// Energy over one hour: 4 nodes at 250 W plus one GPU half busy
	// (62.5 * 0.5) and half idle (62.5 * 0.5 * 0.5).
	wantGPU := m.GPUWatts*0.5 + m.GPUWatts*m.GPUIdleFraction*0.5
	if math.Abs(got.GPUEnergyWh-wantGPU) > 1e-9 {
		t.Fatalf("GPU energy %v, want %v", got.GPUEnergyWh, wantGPU)
	}
	if math.Abs(got.EnergyWh-(1000+wantGPU)) > 1e-9 {
		t.Fatalf("total energy %v, want %v", got.EnergyWh, 1000+wantGPU)
	}
}

func TestPriceValidation(t *testing.T) {
	cfg := Config{Nodes: 4, GPUs: 1, Network: netsim.IB40G()}
	if _, err := Price(cfg, Result{}, CostModel{}); err == nil {
		t.Fatal("bad model must fail")
	}
	if _, err := Price(Config{}, Result{}, DefaultCostModel()); err == nil {
		t.Fatal("bad config must fail")
	}
}

func TestCompareCostAtLightLoad(t *testing.T) {
	// The paper's thesis quantified: at light utilization a 2-GPU shared
	// cluster saves acquisition and energy for a small slowdown.
	jobs := GenerateTrace(TraceConfig{Jobs: 24, MeanInterarrival: time.Minute, MMFraction: 1.0, Seed: 7})
	cfg := Config{Nodes: 8, GPUs: 2, Network: netsim.IB40G()}
	s, err := CompareCost(cfg, jobs, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if s.AcquisitionPc <= 0 {
		t.Fatalf("shared cluster must be cheaper to buy: %+v", s)
	}
	// 6 fewer GPUs out of 8 nodes: acquisition saving is substantial.
	if s.AcquisitionPc < 15 {
		t.Fatalf("acquisition saving %.1f%% too small for 6 fewer GPUs", s.AcquisitionPc)
	}
	if s.EnergyPc <= 0 {
		t.Fatalf("fewer idle GPUs must save energy at light load: %+v", s)
	}
	if s.SlowdownPc > 15 {
		t.Fatalf("slowdown %.1f%% too large at light load", s.SlowdownPc)
	}
}

func TestCompareCostNeedsNetwork(t *testing.T) {
	if _, err := CompareCost(Config{Nodes: 2}, nil, DefaultCostModel()); err == nil {
		t.Fatal("CompareCost without a network must fail")
	}
}
