package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestFitLinearExact(t *testing.T) {
	// Points exactly on y = 8.9x - 0.3, the paper's GigaE regression.
	x := []float64{1, 8, 64, 256, 1024}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 8.9*v - 0.3
	}
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, fit.Slope, 8.9, 1e-9, "slope")
	approx(t, fit.Intercept, -0.3, 1e-9, "intercept")
	approx(t, fit.R, 1.0, 1e-12, "correlation")
}

func TestFitLinearNoisy(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5}
	y := []float64{0.1, 1.9, 4.1, 5.9, 8.1, 9.9} // ~ y = 2x with noise
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, fit.Slope, 2.0, 0.05, "slope")
	if fit.R < 0.999 {
		t.Fatalf("correlation %g too low for near-linear data", fit.R)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("want error for a single point")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("want error for mismatched lengths")
	}
	if _, err := FitLinear([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Fatal("want error for constant x")
	}
}

func TestFitLinearFlatData(t *testing.T) {
	fit, err := FitLinear([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, fit.Slope, 0, 1e-12, "slope of flat data")
	approx(t, fit.R, 1, 1e-12, "flat data is a perfect flat fit")
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, s.Mean, 5, 1e-12, "mean")
	approx(t, s.StdDev, math.Sqrt(32.0/7.0), 1e-12, "sample stddev")
	approx(t, s.Min, 2, 0, "min")
	approx(t, s.Max, 9, 0, "max")
	approx(t, s.Median, 4.5, 1e-12, "median")
	if s.N != 8 {
		t.Fatalf("N = %d, want 8", s.N)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, s.StdDev, 0, 0, "stddev of one sample")
	approx(t, s.Median, 3.5, 0, "median of one sample")
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Fatal("want error for empty sample")
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	approx(t, Mean(xs), 2.25, 1e-12, "mean")
	approx(t, Min(xs), -1, 0, "min")
	approx(t, Mean(nil), 0, 0, "mean of empty")
}

func TestRelativeError(t *testing.T) {
	// Paper Table IV, MM 4096 with the GigaE model: est 2.08s vs meas 2.03s.
	e := RelativeError(2.08, 2.03)
	approx(t, e*100, 2.46, 0.01, "relative error %")
}

func TestCurveInterpolation(t *testing.T) {
	c, err := NewCurve([]Point{{0, 0}, {10, 100}, {20, 100}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, c.Eval(5), 50, 1e-12, "mid-segment")
	approx(t, c.Eval(15), 100, 1e-12, "flat segment")
	approx(t, c.Eval(0), 0, 1e-12, "left anchor")
	approx(t, c.Eval(20), 100, 1e-12, "right anchor")
	// Extrapolation continues the terminal segments.
	approx(t, c.Eval(-5), -50, 1e-12, "left extrapolation")
	approx(t, c.Eval(25), 100, 1e-12, "right extrapolation on flat tail")
}

func TestCurveUnsortedInput(t *testing.T) {
	c, err := NewCurve([]Point{{10, 100}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, c.Eval(5), 50, 1e-12, "anchors must be sorted internally")
}

func TestCurveErrors(t *testing.T) {
	if _, err := NewCurve(nil); err == nil {
		t.Fatal("want error for empty anchors")
	}
	if _, err := NewCurve([]Point{{1, 1}, {1, 2}}); err == nil {
		t.Fatal("want error for duplicate X")
	}
}

func TestCurveSingleAnchor(t *testing.T) {
	c, err := NewCurve([]Point{{4, 22.2}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, c.Eval(-100), 22.2, 0, "single anchor clamps")
	approx(t, c.Eval(100), 22.2, 0, "single anchor clamps")
}

// Property: a regression over points generated from a line recovers it.
func TestFitLinearProperty(t *testing.T) {
	f := func(slope, intercept int8, seed uint8) bool {
		s, b := float64(slope), float64(intercept)
		x := make([]float64, 10)
		y := make([]float64, 10)
		for i := range x {
			x[i] = float64(i) + float64(seed%7)
			y[i] = s*x[i] + b
		}
		fit, err := FitLinear(x, y)
		if err != nil {
			return false
		}
		return math.Abs(fit.Slope-s) < 1e-6 && math.Abs(fit.Intercept-b) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Curve.Eval is exact at every anchor, and monotone inputs between
// two anchors yield values between the anchors' Y (for monotone curves).
func TestCurveAnchorExactProperty(t *testing.T) {
	f := func(ys []uint16) bool {
		if len(ys) == 0 {
			return true
		}
		pts := make([]Point, len(ys))
		for i, y := range ys {
			pts[i] = Point{X: float64(i), Y: float64(y)}
		}
		c, err := NewCurve(pts)
		if err != nil {
			return false
		}
		for _, p := range pts {
			if math.Abs(c.Eval(p.X)-p.Y) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize invariants — Min <= Mean <= Max, StdDev >= 0.
func TestSummarizeInvariantsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.StdDev >= 0 &&
			s.Min <= s.Median && s.Median <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a histogram's percentiles are monotone in p and never exceed
// the largest recorded duration.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewDurationHistogram()
		for _, v := range raw {
			h.Record(time.Duration(v))
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := h.Percentile(pa), h.Percentile(pb)
		return va <= vb && vb <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
