// Package plot renders simple line charts as standalone SVG documents
// using only the standard library, so the reproduction can emit the
// paper's figures as figures (cmd/rcuda-repro -svg).
//
// The feature set is exactly what Figures 3-9 need: multiple named series,
// linear or logarithmic axes, nice-number ticks, a legend, and
// deterministic output (byte-identical for identical input).
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one named polyline.
type Series struct {
	Name string
	X, Y []float64
}

// Chart describes a figure.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	LogX   bool
	LogY   bool
	Series []Series
}

// Layout constants (pixels).
const (
	marginLeft   = 70
	marginRight  = 150 // room for the legend
	marginTop    = 40
	marginBottom = 50
)

// palette holds distinguishable series colors.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
	"#9467bd", "#8c564b", "#17becf", "#7f7f7f",
}

// SVG renders the chart at the given canvas size.
func (c *Chart) SVG(width, height int) (string, error) {
	if width < 200 || height < 150 {
		return "", fmt.Errorf("plot: canvas %dx%d too small", width, height)
	}
	if len(c.Series) == 0 {
		return "", fmt.Errorf("plot: no series")
	}
	var xs, ys []float64
	for _, s := range c.Series {
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			return "", fmt.Errorf("plot: series %q has %d x and %d y values", s.Name, len(s.X), len(s.Y))
		}
		xs = append(xs, s.X...)
		ys = append(ys, s.Y...)
	}
	xScale, err := newScale(xs, c.LogX, marginLeft, width-marginRight)
	if err != nil {
		return "", fmt.Errorf("plot: x axis: %w", err)
	}
	yScale, err := newScale(ys, c.LogY, height-marginBottom, marginTop) // inverted: SVG y grows down
	if err != nil {
		return "", fmt.Errorf("plot: y axis: %w", err)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	fmt.Fprintf(&sb, `<text x="%d" y="22" font-size="15" font-family="sans-serif" text-anchor="middle">%s</text>`+"\n",
		width/2, escape(c.Title))

	// Axes box.
	fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="black"/>`+"\n",
		marginLeft, marginTop, width-marginLeft-marginRight, height-marginTop-marginBottom)

	// Ticks and grid.
	for _, t := range xScale.ticks() {
		px := xScale.pix(t)
		fmt.Fprintf(&sb, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#dddddd"/>`+"\n",
			px, marginTop, px, height-marginBottom)
		fmt.Fprintf(&sb, `<text x="%.1f" y="%d" font-size="11" font-family="sans-serif" text-anchor="middle">%s</text>`+"\n",
			px, height-marginBottom+16, tickLabel(t))
	}
	for _, t := range yScale.ticks() {
		py := yScale.pix(t)
		fmt.Fprintf(&sb, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#dddddd"/>`+"\n",
			marginLeft, py, width-marginRight, py)
		fmt.Fprintf(&sb, `<text x="%d" y="%.1f" font-size="11" font-family="sans-serif" text-anchor="end">%s</text>`+"\n",
			marginLeft-6, py+4, tickLabel(t))
	}

	// Axis labels.
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="12" font-family="sans-serif" text-anchor="middle">%s</text>`+"\n",
		(marginLeft+width-marginRight)/2, height-12, escape(c.XLabel))
	fmt.Fprintf(&sb, `<text x="16" y="%d" font-size="12" font-family="sans-serif" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`+"\n",
		(marginTop+height-marginBottom)/2, (marginTop+height-marginBottom)/2, escape(c.YLabel))

	// Series polylines, each drawn in x order, and legend.
	for i, s := range c.Series {
		s = SortedByX(s)
		color := palette[i%len(palette)]
		var pts []string
		for j := range s.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xScale.pix(s.X[j]), yScale.pix(s.Y[j])))
		}
		fmt.Fprintf(&sb, `<polyline fill="none" stroke="%s" stroke-width="1.8" points="%s"/>`+"\n",
			color, strings.Join(pts, " "))
		ly := marginTop + 14 + i*16
		fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="3"/>`+"\n",
			width-marginRight+10, ly, width-marginRight+30, ly, color)
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="11" font-family="sans-serif">%s</text>`+"\n",
			width-marginRight+36, ly+4, escape(s.Name))
	}
	sb.WriteString("</svg>\n")
	return sb.String(), nil
}

// scale maps data values to pixel coordinates, linearly or in log10 space.
type scale struct {
	lo, hi float64 // data range (log10-transformed when log)
	p0, p1 float64 // pixel range
	log    bool
}

func newScale(vals []float64, log bool, p0, p1 int) (*scale, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if log {
			if v <= 0 {
				return nil, fmt.Errorf("non-positive value %g on a log axis", v)
			}
			v = math.Log10(v)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == hi { // a flat series still needs a span
		lo, hi = lo-1, hi+1
	}
	// Pad 2% so points do not sit on the frame.
	pad := (hi - lo) * 0.02
	return &scale{lo: lo - pad, hi: hi + pad, p0: float64(p0), p1: float64(p1), log: log}, nil
}

// pix maps a data value to its pixel coordinate.
func (s *scale) pix(v float64) float64 {
	if s.log {
		v = math.Log10(v)
	}
	frac := (v - s.lo) / (s.hi - s.lo)
	return s.p0 + frac*(s.p1-s.p0)
}

// ticks returns nice tick positions in data space.
func (s *scale) ticks() []float64 {
	if s.log {
		var out []float64
		for e := math.Floor(s.lo); e <= math.Ceil(s.hi); e++ {
			v := math.Pow(10, e)
			if math.Log10(v) >= s.lo && math.Log10(v) <= s.hi {
				out = append(out, v)
			}
		}
		return out
	}
	span := s.hi - s.lo
	step := niceStep(span / 5)
	start := math.Ceil(s.lo/step) * step
	var out []float64
	for v := start; v <= s.hi+step/1e6; v += step {
		out = append(out, v)
	}
	return out
}

// niceStep rounds a raw step to 1, 2, or 5 times a power of ten.
func niceStep(raw float64) float64 {
	if raw <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	frac := raw / mag
	switch {
	case frac <= 1:
		return mag
	case frac <= 2:
		return 2 * mag
	case frac <= 5:
		return 5 * mag
	default:
		return 10 * mag
	}
}

// tickLabel formats a tick value compactly.
func tickLabel(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.0fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.0fk", v/1e3)
	case av >= 10 || v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2g", v)
	}
}

// escape guards text nodes against markup characters.
func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// SortedByX returns a copy of the series with points ordered by X, the
// order SVG draws a series' polyline in.
func SortedByX(s Series) Series {
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
	out := Series{Name: s.Name, X: make([]float64, len(idx)), Y: make([]float64, len(idx))}
	for i, j := range idx {
		out.X[i], out.Y[i] = s.X[j], s.Y[j]
	}
	return out
}
