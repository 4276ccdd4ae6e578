package broker

import (
	"math"
	"testing"

	"rcuda/internal/netsim"
)

// MakespanTolerance is the stated bound on how far the live pool's
// makespan may deviate from the cluster simulator's list-scheduling
// prediction: the residual is the difference between real wire framing and
// the analytic per-size transfer model.
const MakespanTolerance = 0.05

// TestLiveMakespanMatchesPrediction is the acceptance experiment: the live
// broker under least-loaded placement must land within MakespanTolerance of
// cluster.Simulate's prediction for the same jobs and servers.
func TestLiveMakespanMatchesPrediction(t *testing.T) {
	res, err := SimulateLive(netsim.IB40G(), 3, ExperimentJobs())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.Predicted <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	delta := res.Delta()
	t.Logf("live makespan %v, predicted %v, delta %+.2f%%, placements %v",
		res.Makespan, res.Predicted, 100*delta, res.Placements)
	if math.Abs(delta) > MakespanTolerance {
		t.Fatalf("live makespan %v deviates %+.1f%% from prediction %v (tolerance %.0f%%)",
			res.Makespan, 100*delta, res.Predicted, 100*MakespanTolerance)
	}
	if res.Stats.Failovers != 0 || res.Stats.Spills != 0 {
		t.Fatalf("clean run recorded faults: %+v", res.Stats)
	}
	// Every server must have been used: a pool that piles everything on
	// one server can still pass a loose makespan bound on light loads.
	used := map[int]bool{}
	for _, p := range res.Placements {
		used[p] = true
	}
	if len(used) != 3 {
		t.Fatalf("placements %v left servers idle", res.Placements)
	}
}

// TestLiveMakespanDeterministic locks the experiment's byte-stability: the
// EXPERIMENTS.md table is generated from these numbers.
func TestLiveMakespanDeterministic(t *testing.T) {
	a, err := SimulateLive(netsim.IB40G(), 3, ExperimentJobs())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateLive(netsim.IB40G(), 3, ExperimentJobs())
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Predicted != b.Predicted {
		t.Fatalf("nondeterministic experiment: %v/%v vs %v/%v",
			a.Makespan, a.Predicted, b.Makespan, b.Predicted)
	}
	for i := range a.Placements {
		if a.Placements[i] != b.Placements[i] {
			t.Fatalf("nondeterministic placements: %v vs %v", a.Placements, b.Placements)
		}
	}
}
