package report

import (
	"os"
	"strings"
	"testing"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/workload"
)

// fastConfig keeps table-generation tests quick and deterministic.
func fastConfig() Config { return Config{Reps: 2, Seed: 1, Sigma: 0.002} }

// defaultConfig is the campaign rcuda-repro runs with its default flags
// (-reps 30 -seed 1 -sigma 0.004): the paper's methodology with a small,
// reproducible noise level, and what EXPERIMENTS.md records.
func defaultConfig() Config { return Config{Reps: workload.PaperRepetitions, Seed: 1, Sigma: 0.004} }

func TestTableIContainsPaperRows(t *testing.T) {
	out := TableI()
	for _, want := range []string{
		"cudaMalloc", "cudaMemcpy (to device)", "cudaMemcpy (to host)",
		"cudaLaunch", "cudaFree", "Initialization",
		"x+4", "x+20", "x+44", "Compute capability",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIEvaluatesBothStudies(t *testing.T) {
	out := TableII(4096, 2048)
	for _, want := range []string{"MM (size 4096)", "FFT (size 2048)", "21490", "7856", "338.7", "Total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIIMatchesPaperCells(t *testing.T) {
	out := TableIII()
	// Spot-check famous cells: MM 4096 → 569.4/46.8 ms; FFT 2048 → 71.2/5.9.
	for _, want := range []string{"569.4", "46.8", "71.2", "5.9", "11530", "948.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table III missing %q:\n%s", want, out)
		}
	}
}

func TestTableVMatchesPaperCells(t *testing.T) {
	out := TableV()
	for _, want := range []string{"72.7", "66.0", "85.3", "44.4", "22.2", "1472.7", "449.4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table V missing %q:\n%s", want, out)
		}
	}
}

func TestTableIVRunsCampaign(t *testing.T) {
	out, err := fastConfig().TableIV()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MM", "FFT", "4096", "18432", "2048", "16384", "paper Err %"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table IV missing %q:\n%s", want, out)
		}
	}
}

func TestTableVIGrid(t *testing.T) {
	out, err := fastConfig().TableVI()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CPU", "GPU", "GigaE->10GE", "40GI->A-HT", "18432"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table VI missing %q:\n%s", want, out)
		}
	}
}

func TestTableVIDataShape(t *testing.T) {
	data, err := fastConfig().TableVIData()
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		d := data[cs]
		if len(d.CPU) != len(calib.Sizes(cs)) {
			t.Fatalf("%v: CPU series has %d sizes", cs, len(d.CPU))
		}
		if len(d.EstGigaEModel) != 5 || len(d.Est40GIModel) != 5 {
			t.Fatalf("%v: estimate grids cover %d/%d networks", cs, len(d.EstGigaEModel), len(d.Est40GIModel))
		}
		// The MM shape: estimates beat CPU at large sizes on every target.
		if cs == calib.MM {
			for n, series := range d.EstGigaEModel {
				if series[18432] >= d.CPU[18432] {
					t.Fatalf("MM 18432 on %s: estimate %v should beat CPU %v", n, series[18432], d.CPU[18432])
				}
			}
		}
		// The FFT shape: even the fastest network loses to the CPU.
		if cs == calib.FFT {
			for n, series := range d.Est40GIModel {
				if series[2048] <= d.CPU[2048] {
					t.Fatalf("FFT 2048 on %s: estimate %v should lose to CPU %v", n, series[2048], d.CPU[2048])
				}
			}
		}
	}
}

func TestFigure2Renders(t *testing.T) {
	out, err := Figure2(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 2", "Initialization", "cudaLaunch", "Kernel execution", "Per-phase"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFigureLatencyBothNetworks(t *testing.T) {
	c := fastConfig()
	ge, err := c.FigureLatency(netsim.GigaE())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ge, "Figure 3") || !strings.Contains(ge, "Linear regression") {
		t.Fatalf("GigaE figure malformed:\n%s", ge)
	}
	if !strings.Contains(ge, "[paper: 8.9·n -0.3 ms, 112.4 MB/s]") {
		t.Fatalf("GigaE figure missing paper reference:\n%s", ge)
	}
	ib, err := c.FigureLatency(netsim.IB40G())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ib, "Figure 4") {
		t.Fatalf("40GI figure malformed:\n%s", ib)
	}
}

func TestFigureSeriesBothModels(t *testing.T) {
	c := fastConfig()
	f5, err := c.FigureSeries(calib.MM, "GigaE")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f5, "Figure 5") || !strings.Contains(f5, "size,cpu,gpu,gigae,40gi,10GE") {
		t.Fatalf("Figure 5 malformed:\n%s", f5)
	}
	f6, err := c.FigureSeries(calib.FFT, "40GI")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f6, "Figure 6") {
		t.Fatalf("Figure 6 malformed:\n%s", f6)
	}
}

func TestDefaultConfig(t *testing.T) {
	c := defaultConfig()
	if c.Reps != 30 {
		t.Fatalf("default reps = %d, want the paper's 30", c.Reps)
	}
	if c.noise(1) == nil {
		t.Fatal("default config should produce noise")
	}
	if (Config{}).noise(1) != nil {
		t.Fatal("zero sigma must disable noise")
	}
}

func TestFigure7Extension(t *testing.T) {
	out, err := fastConfig().Figure7(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 7", "GigaE sync", "A-HT piped", "gain %"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 7 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure8Extension(t *testing.T) {
	out, err := fastConfig().Figure8(8192, 8192, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 8", "bandwidth_MBps", "bandwidth floor", "MM size 8192", "FFT size 8192", "none — not worth remoting"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 8 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure9Extension(t *testing.T) {
	out, err := fastConfig().Figure9(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 9", "mean_slowdown", "link_util", "MM size 8192 over GigaE", "FFT size 8192 over 40GI"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Figure 9 missing %q:\n%s", want, out)
		}
	}
}

func TestWriteSVGs(t *testing.T) {
	dir := t.TempDir()
	paths, err := fastConfig().WriteSVGs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 10 {
		t.Fatalf("wrote %d figures, want 10", len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "<svg ") {
			t.Fatalf("%s is not an SVG", p)
		}
	}
}
