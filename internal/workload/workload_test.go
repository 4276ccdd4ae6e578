package workload

import (
	"math"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/trace"
	"rcuda/internal/vclock"
)

func sec(d time.Duration) float64 { return d.Seconds() }

func relClose(t *testing.T, got, want time.Duration, tol float64, msg string) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", msg)
	}
	if rel := math.Abs(sec(got)-sec(want)) / sec(want); rel > tol {
		t.Fatalf("%s: got %v, want %v (%.2f%% off, tol %.2f%%)", msg, got, want, rel*100, tol*100)
	}
}

// The noiseless simulator must land on the paper's measured columns.
func TestAnalyticCPUMatchesPaper(t *testing.T) {
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		for _, size := range calib.Sizes(cs) {
			r, err := Run(cs, size, CPU, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, _ := calib.PaperCPU(cs, size)
			relClose(t, r.Total, want, 1e-6, cs.String()+" CPU")
		}
	}
}

func TestAnalyticLocalGPUMatchesPaper(t *testing.T) {
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		for _, size := range calib.Sizes(cs) {
			r, err := Run(cs, size, LocalGPU, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, _ := calib.PaperGPU(cs, size)
			relClose(t, r.Total, want, 1e-6, cs.String()+" local GPU")
		}
	}
}

// The full simulated remote executions must land near the paper's measured
// GigaE and 40GI columns (within a few percent; the paper's own
// measurements carry up to ~1s of standard deviation).
func TestAnalyticRemoteMatchesPaperMeasured(t *testing.T) {
	for _, netName := range []string{"GigaE", "40GI"} {
		link, err := netsim.ByName(netName)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
			for _, size := range calib.Sizes(cs) {
				r, err := Run(cs, size, Remote, Options{Link: link})
				if err != nil {
					t.Fatal(err)
				}
				want, _ := calib.PaperMeasured(cs, netName, size)
				relClose(t, r.Total, want, 0.04, cs.String()+" remote "+netName)
			}
		}
	}
}

// The paper's headline observation at m=4096: remote over 40GI beats the
// local GPU because the daemon pre-initializes the CUDA context.
func TestRemote40GIBeatsLocalGPUAtSmallestMM(t *testing.T) {
	local, err := Run(calib.MM, 4096, LocalGPU, Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Run(calib.MM, 4096, Remote, Options{Link: netsim.IB40G()})
	if err != nil {
		t.Fatal(err)
	}
	if remote.Total >= local.Total {
		t.Fatalf("remote 40GI (%v) should beat local GPU (%v) at m=4096", remote.Total, local.Total)
	}
}

// Functional and analytic modes must agree exactly when noise is off.
func TestFunctionalMatchesAnalytic(t *testing.T) {
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		size := 64
		for _, tc := range []struct {
			backend Backend
			link    *netsim.Link
		}{
			{LocalGPU, nil},
			{Remote, netsim.IB40G()},
			{Remote, netsim.GigaE()},
		} {
			analytic, err := Run(cs, size, tc.backend, Options{Link: tc.link})
			if err != nil {
				t.Fatal(err)
			}
			functional, err := Run(cs, size, tc.backend, Options{Link: tc.link, Functional: true})
			if err != nil {
				t.Fatal(err)
			}
			if !functional.Verified {
				t.Fatalf("%v %v: functional run not verified", cs, tc.backend)
			}
			relClose(t, functional.Total, analytic.Total, 1e-6,
				cs.String()+" "+tc.backend.String()+" functional vs analytic")
		}
	}
}

func TestFunctionalRejectsPaperScale(t *testing.T) {
	if _, err := Run(calib.MM, 4096, Remote, Options{Link: netsim.GigaE(), Functional: true}); err == nil {
		t.Fatal("paper-scale functional run must be rejected")
	}
	if _, err := Run(calib.MM, 48+1, LocalGPU, Options{Functional: true}); err == nil {
		t.Fatal("non-multiple-of-16 MM functional size must be rejected")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(calib.MM, 0, CPU, Options{}); err == nil {
		t.Fatal("zero size must fail")
	}
	if _, err := Run(calib.MM, 64, Remote, Options{}); err == nil {
		t.Fatal("remote without a link must fail")
	}
	if _, err := Run(calib.MM, 64, Backend(42), Options{}); err == nil {
		t.Fatal("unknown backend must fail")
	}
}

func TestBackendStrings(t *testing.T) {
	if CPU.String() != "CPU" || LocalGPU.String() != "GPU" || Remote.String() != "rCUDA" {
		t.Fatal("backend names")
	}
	if Backend(9).String() == "" {
		t.Fatal("unknown backend must format")
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	r, err := Run(calib.FFT, 2048, Remote, Options{Link: netsim.GigaE()})
	if err != nil {
		t.Fatal(err)
	}
	sum := r.Parts.Init + r.Parts.DataGen + r.Parts.Marshal + r.Parts.Network +
		r.Parts.PCIe + r.Parts.Kernel + r.Parts.Compute + r.Parts.Mgmt
	if sum != r.Total {
		t.Fatalf("breakdown sums to %v, total %v", sum, r.Total)
	}
}

func TestNoiseChangesTotalsDeterministically(t *testing.T) {
	a, err := Run(calib.MM, 8192, Remote, Options{Link: netsim.GigaE(), Noise: netsim.NewNoise(7, 0.01)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(calib.MM, 8192, Remote, Options{Link: netsim.GigaE(), Noise: netsim.NewNoise(7, 0.01)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total {
		t.Fatal("same seed must reproduce the same run")
	}
	c, err := Run(calib.MM, 8192, Remote, Options{Link: netsim.GigaE(), Noise: netsim.NewNoise(8, 0.01)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Total == c.Total {
		t.Fatal("different seeds should differ")
	}
	// Noise should stay in the few-percent band.
	relClose(t, c.Total, a.Total, 0.1, "noise magnitude")
}

func TestMeasureMeanAveragesRuns(t *testing.T) {
	s, err := MeasureMean(calib.FFT, 2048, Remote,
		Options{Link: netsim.IB40G(), Noise: netsim.NewNoise(1, 0.01)}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 {
		t.Fatalf("summary over %d samples", s.N)
	}
	want, _ := calib.PaperMeasured(calib.FFT, "40GI", 2048)
	relClose(t, time.Duration(s.Mean*float64(time.Second)), want, 0.05, "mean vs paper")
	if s.StdDev <= 0 {
		t.Fatal("noisy runs must show spread")
	}
}

func TestMeasureSeriesFeedsModel(t *testing.T) {
	// End-to-end methodology: measure the series on both networks with the
	// simulator, build the model, cross-validate, and check the error
	// shape matches the paper (small for MM, large for small-batch FFT).
	ge, ib := netsim.GigaE(), netsim.IB40G()
	geMeas, err := MeasureSeries(calib.FFT, Remote, Options{Link: ge, Noise: netsim.NewNoise(1, 0.005)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	ibMeas, err := MeasureSeries(calib.FFT, Remote, Options{Link: ib, Noise: netsim.NewNoise(2, 0.005)}, 5)
	if err != nil {
		t.Fatal(err)
	}
	model, err := perfmodel.Build(calib.FFT, ge, geMeas)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := perfmodel.CrossValidate(model, ib, ibMeas)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].RelativeErrorPc < 15 {
		t.Fatalf("simulated FFT 2048 cross-validation error %.1f%% should be large (paper: 33.95%%)",
			rows[0].RelativeErrorPc)
	}
	last := rows[len(rows)-1]
	if last.RelativeErrorPc > 15 {
		t.Fatalf("simulated FFT 16384 error %.1f%% should shrink (paper: 5.77%%)", last.RelativeErrorPc)
	}
}

func TestObserverTracesFunctionalRemote(t *testing.T) {
	clk := vclock.NewSim()
	rec := trace.NewRecorder(clk)
	r, err := Run(calib.MM, 64, Remote, Options{
		Link:       netsim.IB40G(),
		Functional: true,
		Clock:      clk,
		Observer:   rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Fatal("functional run must verify")
	}
	events := rec.Events()
	// init + 3 malloc + 2 h2d + launch + d2h + 3 free + finalize = 12.
	if len(events) != 12 {
		t.Fatalf("traced %d calls, want 12", len(events))
	}
	bd := rec.PhaseBreakdown(0)
	var total time.Duration
	for _, b := range bd {
		total += b.Time
	}
	if total == 0 {
		t.Fatal("trace must attribute time to phases")
	}
}

// The Table VI grid produced by the simulator: remote MM on every target
// network must beat the CPU (GPU-worthy) while FFT must not.
func TestTableVIShapeAcrossTargets(t *testing.T) {
	geMeas, err := MeasureSeries(calib.MM, Remote, Options{Link: netsim.GigaE()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	model, err := perfmodel.Build(calib.MM, netsim.GigaE(), geMeas)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range netsim.Targets() {
		for _, size := range calib.Sizes(calib.MM)[2:] { // m >= 8192
			est, err := model.Estimate(target, size)
			if err != nil {
				t.Fatal(err)
			}
			cpu, _ := calib.PaperCPU(calib.MM, size)
			if est >= cpu {
				t.Fatalf("MM %d on %s: remote %v should beat CPU %v", size, target.Name(), est, cpu)
			}
		}
	}
}
