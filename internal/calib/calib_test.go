package calib

import (
	"math"
	"testing"
	"time"
)

func sec(d time.Duration) float64 { return d.Seconds() }

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestSizesAndGeometry(t *testing.T) {
	if got := Sizes(MM); len(got) != 8 || got[0] != 4096 || got[7] != 18432 {
		t.Fatalf("MM sizes = %v", got)
	}
	if got := Sizes(FFT); len(got) != 7 || got[0] != 2048 || got[6] != 16384 {
		t.Fatalf("FFT sizes = %v", got)
	}
	// Table III data volumes: MM 4096 → 64 MB per copy; FFT 2048 → 8 MB.
	if got := CopyBytes(MM, 4096); got != 64<<20 {
		t.Fatalf("MM copy bytes = %d, want 64 MiB", got)
	}
	if got := CopyBytes(FFT, 2048); got != 8<<20 {
		t.Fatalf("FFT copy bytes = %d, want 8 MiB", got)
	}
	if CopyCount(MM) != 3 || CopyCount(FFT) != 2 {
		t.Fatal("copy multipliers must be 3 (MM) and 2 (FFT)")
	}
	if InputCopies(MM) != 2 || InputCopies(FFT) != 1 {
		t.Fatal("input copy counts must be 2 (MM) and 1 (FFT)")
	}
	if ModuleBytes(MM) != 21486 || ModuleBytes(FFT) != 7852 {
		t.Fatal("module sizes must match Section IV-B")
	}
}

func TestCaseStudyString(t *testing.T) {
	if MM.String() != "MM" || FFT.String() != "FFT" {
		t.Fatal("case study names")
	}
	if CaseStudy(9).String() == "" {
		t.Fatal("unknown case study must format")
	}
}

func TestPublishedLookups(t *testing.T) {
	d, ok := PaperCPU(MM, 4096)
	if !ok {
		t.Fatal("MM CPU 4096 must exist")
	}
	approx(t, sec(d), 2.08, 1e-9, "MM CPU 4096")
	d, ok = PaperGPU(FFT, 16384)
	if !ok {
		t.Fatal("FFT GPU 16384 must exist")
	}
	approx(t, d.Seconds()*1e3, 403.0, 1e-6, "FFT GPU 16384 ms")
	d, ok = PaperMeasured(MM, "GigaE", 18432)
	if !ok {
		t.Fatal("MM GigaE 18432 must exist")
	}
	approx(t, sec(d), 97.65, 1e-9, "MM GigaE 18432")
	d, ok = PaperMeasured(FFT, "40GI", 2048)
	if !ok {
		t.Fatal("FFT 40GI 2048 must exist")
	}
	approx(t, d.Seconds()*1e3, 167.0, 1e-6, "FFT 40GI 2048 ms")
	d, ok = PaperFixed(MM, "40GI", 4096)
	if !ok {
		t.Fatal("MM fixed 40GI 4096 must exist")
	}
	approx(t, sec(d), 1.89, 1e-9, "MM fixed 40GI 4096")

	if _, ok := PaperCPU(MM, 5000); ok {
		t.Fatal("non-anchor size must report !ok")
	}
	if _, ok := PaperMeasured(MM, "Myr", 4096); ok {
		t.Fatal("Myr was never measured")
	}
	if _, ok := PaperFixed(MM, "10GE", 4096); ok {
		t.Fatal("only GigaE/40GI have fixed columns")
	}
}

// Table IV: predicted execution time on the opposite testbed network, in
// the paper's printed units.
var (
	mmEst40GIFromGigaE  = []float64{2.08, 4.94, 9.33, 15.67, 24.28, 35.75, 49.04, 65.90}
	mmEstGigaEFrom40GI  = []float64{3.60, 8.38, 15.61, 25.54, 38.53, 54.70, 75.02, 98.80}
	fftEst40GIFromGigaE = []float64{223.69, 294.38, 369.06, 441.75, 514.44, 587.46, 736.84}
	fftEstGigaEFrom40GI = []float64{297.65, 487.29, 698.27, 902.25, 1111.23, 1321.54, 1741.83}
)

// PaperCrossEstimate returns the paper's Table IV prediction for the
// validation network implied by the model network (GigaE model predicts
// 40GI and vice versa).
func PaperCrossEstimate(cs CaseStudy, model string, size int) (time.Duration, bool) {
	var table []float64
	switch {
	case model == "GigaE":
		table = pick(cs, mmEst40GIFromGigaE, fftEst40GIFromGigaE)
	case model == "40GI":
		table = pick(cs, mmEstGigaEFrom40GI, fftEstGigaEFrom40GI)
	default:
		return 0, false
	}
	return published(cs, table, size)
}

func TestPaperEstimates(t *testing.T) {
	d, ok := PaperCrossEstimate(MM, "GigaE", 4096)
	if !ok {
		t.Fatal("cross estimate must exist")
	}
	approx(t, sec(d), 2.08, 1e-9, "Table IV est 40GI from GigaE model")
	e, ok := PaperCrossError(FFT, "GigaE", 2048)
	if !ok {
		t.Fatal("cross error must exist")
	}
	approx(t, e, 33.95, 1e-9, "Table IV FFT error")
	d, ok = PaperTargetEstimate(MM, "GigaE", "A-HT", 18432)
	if !ok {
		t.Fatal("target estimate must exist")
	}
	approx(t, sec(d), 64.40, 1e-9, "Table VI MM A-HT")
	d, ok = PaperTargetEstimate(FFT, "40GI", "Myr", 8192)
	if !ok {
		t.Fatal("target estimate must exist")
	}
	approx(t, d.Seconds()*1e3, 418.19, 1e-6, "Table VI FFT Myr")

	if _, ok := PaperTargetEstimate(MM, "GigaE", "GigaE", 4096); ok {
		t.Fatal("testbed networks are measured, not estimated")
	}
	if _, ok := PaperCrossEstimate(MM, "Myr", 4096); ok {
		t.Fatal("only testbed models exist")
	}
	if _, ok := PaperCrossError(MM, "bogus", 4096); ok {
		t.Fatal("bogus model must report !ok")
	}
	if len(TargetNetworks()) != 5 {
		t.Fatal("five target networks")
	}
}

// The decomposition must recompose exactly to the published aggregates at
// every anchor size.
func TestDecompositionRecomposesLocalGPU(t *testing.T) {
	for _, cs := range []CaseStudy{MM, FFT} {
		for _, size := range Sizes(cs) {
			want, _ := PaperGPU(cs, size)
			got := LocalInit(cs) + DataGenTime(cs, size) +
				time.Duration(CopyCount(cs))*PCIeTime(cs, size) +
				KernelTime(cs, size) + Mgmt
			if diff := math.Abs(sec(got) - sec(want)); diff > sec(want)*1e-6+1e-9 {
				t.Fatalf("%v size %d: components sum to %v, published GPU time %v", cs, size, got, want)
			}
		}
	}
}

func TestDecompositionRecomposesFixedTime(t *testing.T) {
	for _, cs := range []CaseStudy{MM, FFT} {
		for _, size := range Sizes(cs) {
			want, _ := PaperFixed(cs, "40GI", size)
			got := DataGenTime(cs, size) + MarshalTime(cs, size) +
				time.Duration(CopyCount(cs))*PCIeTime(cs, size) +
				KernelTime(cs, size) + Mgmt
			if diff := math.Abs(sec(got) - sec(want)); diff > sec(want)*1e-6+1e-9 {
				t.Fatalf("%v size %d: components sum to %v, published fixed time %v", cs, size, got, want)
			}
		}
	}
}

func TestComponentsPositiveEverywhere(t *testing.T) {
	for _, cs := range []CaseStudy{MM, FFT} {
		sizes := append([]int{16, 64, 256, 1000}, Sizes(cs)...)
		sizes = append(sizes, 3*Sizes(cs)[len(Sizes(cs))-1]/2)
		for _, size := range sizes {
			for name, d := range map[string]time.Duration{
				"cpu":     CPUTime(cs, size),
				"kernel":  KernelTime(cs, size),
				"marshal": MarshalTime(cs, size),
				"datagen": DataGenTime(cs, size),
				"pcie":    PCIeTime(cs, size),
			} {
				if d <= 0 {
					t.Fatalf("%v size %d: %s time %v must be positive", cs, size, name, d)
				}
			}
		}
	}
}

func TestComponentsMonotoneInSize(t *testing.T) {
	for _, cs := range []CaseStudy{MM, FFT} {
		prevKernel, prevCPU := time.Duration(0), time.Duration(0)
		for _, size := range Sizes(cs) {
			k, c := KernelTime(cs, size), CPUTime(cs, size)
			if k <= prevKernel || c <= prevCPU {
				t.Fatalf("%v: non-monotone component at size %d", cs, size)
			}
			prevKernel, prevCPU = k, c
		}
	}
}

func TestExtrapolationScalesByWork(t *testing.T) {
	// Below the smallest anchor, MM compute scales cubically.
	k1 := CPUTime(MM, 1024)
	k2 := CPUTime(MM, 2048)
	ratio := sec(k2) / sec(k1)
	approx(t, ratio, 8, 0.01, "CPU O(m³) extrapolation")
	// FFT scales linearly in the batch.
	f1 := CPUTime(FFT, 256)
	f2 := CPUTime(FFT, 512)
	approx(t, sec(f2)/sec(f1), 2, 0.01, "FFT O(n) extrapolation")
}

func TestLocalInitPerCaseStudy(t *testing.T) {
	if LocalInit(MM) != ContextInit {
		t.Fatal("MM pays the full context initialization")
	}
	if LocalInit(FFT) != 0 {
		t.Fatal("FFT times are warm-context; no init")
	}
}

// GPU wins at MM (compute-bound) and loses at FFT (transfer-bound): the
// paper's central eligibility observation must hold in the calibration.
func TestGPUEligibilityShape(t *testing.T) {
	for _, size := range Sizes(MM)[1:] { // beyond 4096, GPU beats CPU
		cpu, _ := PaperCPU(MM, size)
		gpuT, _ := PaperGPU(MM, size)
		if gpuT >= cpu {
			t.Fatalf("MM %d: GPU %v should beat CPU %v", size, gpuT, cpu)
		}
	}
	for _, size := range Sizes(FFT) {
		cpu, _ := PaperCPU(FFT, size)
		gpuT, _ := PaperGPU(FFT, size)
		if gpuT <= cpu {
			t.Fatalf("FFT %d: CPU %v should beat GPU %v", size, cpu, gpuT)
		}
	}
}
