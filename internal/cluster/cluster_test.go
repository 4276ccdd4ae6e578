package cluster

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
)

func mmJob(id int, size int, arrival time.Duration) Job {
	return Job{ID: id, CS: calib.MM, Size: size, Arrival: arrival}
}

func baseConfig(gpus int) Config {
	return Config{Nodes: 16, GPUs: gpus, Network: netsim.IB40G()}
}

func TestValidation(t *testing.T) {
	if _, err := Simulate(Config{}, nil); err == nil {
		t.Fatal("zero nodes must fail")
	}
	if _, err := Simulate(Config{Nodes: 4, GPUs: 0, Network: netsim.IB40G()}, nil); err == nil {
		t.Fatal("zero GPUs with a network must fail")
	}
	if _, err := Simulate(Config{Nodes: 4, GPUs: 5, Network: netsim.IB40G()}, nil); err == nil {
		t.Fatal("more GPUs than nodes must fail")
	}
	if _, err := SweepGPUs(Config{Nodes: 4}, nil); err == nil {
		t.Fatal("sweep without a network must fail")
	}
}

func TestSingleJobMatchesWorkloadModel(t *testing.T) {
	res, err := Simulate(baseConfig(1), []Job{mmJob(0, 4096, 0)})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	// One job, no contention: turnaround equals the remote execution
	// time of the workload model (measured 40GI @4096 ≈ 2.03 s).
	want, _ := calib.PaperMeasured(calib.MM, "40GI", 4096)
	if diff := j.Turnaround() - want; diff < -100*time.Millisecond || diff > 100*time.Millisecond {
		t.Fatalf("single-job turnaround %v, want ≈ %v", j.Turnaround(), want)
	}
	if j.QueueDelay != 0 {
		t.Fatalf("lone job queued for %v", j.QueueDelay)
	}
	if res.Makespan != j.End {
		t.Fatal("makespan must equal the only job's end")
	}
}

func TestQueueingOnOneGPU(t *testing.T) {
	jobs := []Job{mmJob(0, 8192, 0), mmJob(1, 8192, 0), mmJob(2, 8192, 0)}
	res, err := Simulate(baseConfig(1), jobs)
	if err != nil {
		t.Fatal(err)
	}
	// All three share one GPU: the schedule serializes service.
	var queued int
	for _, j := range res.Jobs {
		if j.QueueDelay > 0 {
			queued++
		}
		if j.GPU != 0 {
			t.Fatalf("job %d on GPU %d, only GPU 0 exists", j.ID, j.GPU)
		}
	}
	if queued != 2 {
		t.Fatalf("%d jobs queued, want 2", queued)
	}
}

func TestMoreGPUsNeverHurt(t *testing.T) {
	jobs := GenerateTrace(TraceConfig{Jobs: 40, MeanInterarrival: 200 * time.Millisecond, MMFraction: 0.7, Seed: 1})
	prev := time.Duration(1<<62 - 1)
	for _, g := range []int{1, 2, 4, 8, 16} {
		res, err := Simulate(baseConfig(g), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan > prev {
			t.Fatalf("makespan grew from %v to %v when adding GPUs (g=%d)", prev, res.Makespan, g)
		}
		prev = res.Makespan
	}
}

func TestLeastLoadedDeterministic(t *testing.T) {
	jobs := GenerateTrace(TraceConfig{Jobs: 30, MeanInterarrival: 50 * time.Millisecond, MMFraction: 0.5, Seed: 3})
	a, err := Simulate(baseConfig(3), jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(baseConfig(3), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of one trace differ:\n%+v\n%+v", a, b)
	}
}

func TestLocalClusterHasNoNetworkTime(t *testing.T) {
	jobs := []Job{mmJob(0, 8192, 0)}
	res, err := Simulate(Config{Nodes: 4}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// A local run matches the local-GPU baseline (8.12 s at m=8192).
	want, _ := calib.PaperGPU(calib.MM, 8192)
	if diff := res.Jobs[0].Turnaround() - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("local turnaround %v, want %v", res.Jobs[0].Turnaround(), want)
	}
}

func TestGenerateTraceShape(t *testing.T) {
	tc := TraceConfig{Jobs: 200, MeanInterarrival: time.Second, MMFraction: 0.6, Seed: 4}
	jobs := GenerateTrace(tc)
	if len(jobs) != 200 {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	var mm int
	prev := time.Duration(-1)
	for _, j := range jobs {
		if j.Arrival <= prev {
			t.Fatal("arrivals must be strictly increasing")
		}
		prev = j.Arrival
		if j.CS == calib.MM {
			mm++
			found := false
			for _, s := range calib.Sizes(calib.MM) {
				if s == j.Size {
					found = true
				}
			}
			if !found {
				t.Fatalf("MM job with non-paper size %d", j.Size)
			}
		}
	}
	if mm < 80 || mm > 160 {
		t.Fatalf("MM fraction off: %d of 200", mm)
	}
	// Determinism.
	again := GenerateTrace(tc)
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatal("trace generation must be deterministic")
		}
	}
}

func TestSweepAndRequiredGPUs(t *testing.T) {
	// The paper's premise: cluster GPUs are not usually fully utilized.
	// With one ~tens-of-seconds MM job arriving per minute across 8
	// nodes, a couple of shared GPUs keep up with the fully equipped
	// cluster.
	jobs := GenerateTrace(TraceConfig{Jobs: 32, MeanInterarrival: time.Minute, MMFraction: 1.0, Seed: 5})
	cfg := Config{Nodes: 8, Network: netsim.IB40G()}
	sweep, err := SweepGPUs(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 8 {
		t.Fatalf("sweep produced %d results", len(sweep))
	}
	gpus, remote, local, err := RequiredGPUs(cfg, jobs, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if remote <= 0 || local <= 0 {
		t.Fatalf("degenerate makespans: remote %v, local %v", remote, local)
	}
	// The headline of the paper: far fewer GPUs than nodes suffice.
	if gpus > 3 {
		t.Fatalf("required %d GPUs of 8 at light utilization; the sharing argument should need <= 3", gpus)
	}
}

func TestRequiredGPUsSaturatedTraceNeedsMore(t *testing.T) {
	// Under a saturated trace, sharing cannot hide the queueing: the
	// required count climbs toward the node count.
	light := GenerateTrace(TraceConfig{Jobs: 32, MeanInterarrival: time.Minute, MMFraction: 1.0, Seed: 5})
	heavy := GenerateTrace(TraceConfig{Jobs: 32, MeanInterarrival: 500 * time.Millisecond, MMFraction: 1.0, Seed: 5})
	cfg := Config{Nodes: 8, Network: netsim.IB40G()}
	gLight, _, _, err := RequiredGPUs(cfg, light, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	gHeavy, _, _, err := RequiredGPUs(cfg, heavy, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if gHeavy <= gLight {
		t.Fatalf("saturated trace needs %d GPUs, light trace %d; want strictly more under load", gHeavy, gLight)
	}
}

func TestUtilizationRisesAsGPUsShrink(t *testing.T) {
	jobs := GenerateTrace(TraceConfig{Jobs: 40, MeanInterarrival: 300 * time.Millisecond, MMFraction: 1.0, Seed: 6})
	cfg := baseConfig(1)
	one, err := Simulate(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cfg = baseConfig(8)
	eight, err := Simulate(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(one.Utilization) <= mean(eight.Utilization) {
		t.Fatalf("one-GPU utilization %.2f should exceed eight-GPU %.2f",
			mean(one.Utilization), mean(eight.Utilization))
	}
}

// Property: schedules are feasible — no job starts before it is ready, no
// GPU runs two jobs at once, and every job lands on a valid GPU.
func TestScheduleFeasibilityProperty(t *testing.T) {
	f := func(seed int64, nJobs uint8, gpus uint8) bool {
		g := int(gpus%8) + 1
		n := int(nJobs%50) + 1
		jobs := GenerateTrace(TraceConfig{
			Jobs: n, MeanInterarrival: 100 * time.Millisecond, MMFraction: 0.5, Seed: seed,
		})
		cfg := Config{Nodes: 8, GPUs: g, Network: netsim.TenGigE()}
		res, err := Simulate(cfg, jobs)
		if err != nil {
			return false
		}
		type span struct {
			s, e time.Duration
		}
		perGPU := make(map[int][]span)
		for _, j := range res.Jobs {
			if j.GPU < 0 || j.GPU >= g {
				return false
			}
			if j.Start < j.Ready || j.End <= j.Start {
				return false
			}
			perGPU[j.GPU] = append(perGPU[j.GPU], span{j.Start, j.End})
		}
		for _, spans := range perGPU {
			for i := range spans {
				for k := i + 1; k < len(spans); k++ {
					if spans[i].s < spans[k].e && spans[k].s < spans[i].e {
						return false // overlap on one GPU
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousNetworks(t *testing.T) {
	// Two identical jobs on one cluster, one reaching the GPU over GigaE
	// and one over A-HT: the fast-fabric job must finish first when each
	// gets its own GPU.
	aht, err := netsim.ByName("A-HT")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{ID: 0, CS: calib.MM, Size: 8192},               // cluster default (40GI)
		{ID: 1, CS: calib.MM, Size: 8192, Network: aht}, // faster rack
	}
	cfg := Config{Nodes: 4, GPUs: 2, Network: netsim.GigaE()}
	res, err := Simulate(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]Job{}
	for _, j := range res.Jobs {
		byID[j.ID] = j
	}
	if byID[1].Turnaround() >= byID[0].Turnaround() {
		t.Fatalf("A-HT job (%v) should beat the GigaE job (%v)",
			byID[1].Turnaround(), byID[0].Turnaround())
	}
}

func TestHeterogeneousTraceRoundTrip(t *testing.T) {
	in := `[
	  {"id": 0, "case": "MM",  "size": 4096, "arrival_ms": 0},
	  {"id": 1, "case": "FFT", "size": 2048, "arrival_ms": 0, "network": "A-HT"}
	]`
	got, err := LoadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Network != nil {
		t.Fatal("default-network job must load with nil network")
	}
	if got[1].Network == nil || got[1].Network.Name() != "A-HT" {
		t.Fatalf("job 1 network %v", got[1].Network)
	}
	// Unknown network names fail loading.
	bad := `[{"id":0,"case":"MM","size":8,"arrival_ms":0,"network":"smoke-signals"}]`
	if _, err := LoadTrace(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown network must fail")
	}
}
