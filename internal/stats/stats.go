// Package stats implements the small statistical toolbox the paper's
// methodology relies on: least-squares linear regression with correlation
// coefficient (used to fit the large-payload latency functions f and g),
// summary statistics (mean, standard deviation, min/max — used to report
// measurement variability), and piecewise-linear interpolation (used to
// evaluate the measured small-message latency curves at arbitrary sizes).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when an operation needs more samples than
// were provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

// ErrMismatchedLengths is returned when paired samples differ in length.
var ErrMismatchedLengths = errors.New("stats: x and y have different lengths")

// Linear is a least-squares fit y ≈ Slope*x + Intercept.
type Linear struct {
	Slope     float64
	Intercept float64
	// R is the Pearson correlation coefficient of the fitted data. The
	// paper reports r = 1.0 for both latency regressions.
	R float64
}

// Eval evaluates the fitted line at x.
func (l Linear) Eval(x float64) float64 { return l.Slope*x + l.Intercept }

// FitLinear computes the least-squares regression line through (x[i], y[i]).
// It needs at least two points with distinct x values.
func FitLinear(x, y []float64) (Linear, error) {
	if len(x) != len(y) {
		return Linear{}, ErrMismatchedLengths
	}
	if len(x) < 2 {
		return Linear{}, ErrInsufficientData
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Linear{}, errors.New("stats: all x values identical")
	}
	slope := sxy / sxx
	fit := Linear{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R = sxy / math.Sqrt(sxx*syy)
	} else {
		// A perfectly flat response is perfectly correlated with the
		// fitted (flat) line.
		fit.R = 1
	}
	return fit, nil
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N              int
	Mean, StdDev   float64
	Min, Max       float64
	Median         float64
	Sum            float64
	CoefficientVar float64 // StdDev/Mean; 0 when Mean == 0
}

// Summarize computes descriptive statistics. StdDev is the sample standard
// deviation (n-1 denominator), matching how measurement papers report
// variability; for a single sample it is zero.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrInsufficientData
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, v := range xs {
		s.Sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, v := range xs {
			d := v - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	if s.Mean != 0 {
		s.CoefficientVar = s.StdDev / s.Mean
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s, nil
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Min returns the smallest element. It panics on an empty slice, mirroring
// the contract of the built-in min over a fixed argument list.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// RelativeError returns (estimated-measured)/measured, the signed error rate
// the paper reports in Table IV. measured must be non-zero.
func RelativeError(estimated, measured float64) float64 {
	return (estimated - measured) / measured
}

// Point is a node of a piecewise-linear curve.
type Point struct{ X, Y float64 }

// Curve is a piecewise-linear interpolator over a set of anchor points,
// used to evaluate the measured small-message latency plots (Figures 3 and
// 4, left) at arbitrary message sizes, exactly as the paper interpolates
// "if the exact value was not available".
type Curve struct {
	pts []Point
}

// NewCurve builds an interpolator from anchor points. Points are sorted by
// X; duplicate X values are rejected. At least one point is required.
func NewCurve(pts []Point) (*Curve, error) {
	if len(pts) == 0 {
		return nil, ErrInsufficientData
	}
	sorted := append([]Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].X < sorted[j].X })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].X == sorted[i-1].X {
			return nil, errors.New("stats: duplicate X in curve anchors")
		}
	}
	return &Curve{pts: sorted}, nil
}

// Eval interpolates linearly between the two anchors that bracket x. Outside
// the anchor range the curve is extrapolated along its first/last segment
// (or clamped when there is a single anchor).
func (c *Curve) Eval(x float64) float64 {
	pts := c.pts
	if len(pts) == 1 {
		return pts[0].Y
	}
	// Find the segment. sort.Search returns the first anchor with X >= x.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].X >= x })
	switch {
	case i == 0:
		i = 1
	case i == len(pts):
		i = len(pts) - 1
	}
	a, b := pts[i-1], pts[i]
	t := (x - a.X) / (b.X - a.X)
	return a.Y + t*(b.Y-a.Y)
}
