package report

import (
	"fmt"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/plot"
	"rcuda/internal/stats"
	"rcuda/internal/trace"
	"rcuda/internal/vclock"
	"rcuda/internal/workload"
)

// Figure2 runs a functional remote matrix multiplication with tracing and
// renders the client-server message sequence of the paper's Figure 2.
func Figure2(size int) (string, error) {
	clk := vclock.NewSim()
	rec := trace.NewRecorder(clk)
	r, err := workload.Run(calib.MM, size, workload.Remote, workload.Options{
		Link:       netsim.IB40G(),
		Functional: true,
		Clock:      clk,
		Observer:   rec,
	})
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("Figure 2 — Client-server communications for a matrix multiplication (m=%d, 40GI, total %v)\n\n",
		size, r.Total)
	out += rec.Render()
	out += "\nPer-phase breakdown:\n"
	var rows [][]string
	for _, b := range rec.PhaseBreakdown(0) {
		if b.Calls == 0 {
			continue
		}
		rows = append(rows, []string{
			b.Phase.String(), fmt.Sprint(b.Calls),
			fmt.Sprint(b.SendBytes), fmt.Sprint(b.RecvBytes), b.Time.String(),
		})
	}
	out += tabulate([]string{"Phase", "Calls", "Sent (B)", "Recv (B)", "Time"}, rows)
	return out, nil
}

// Figure 3/4 payload grids, matching the plotted ranges of the paper.
var (
	smallSizes = []int64{4, 8, 12, 16, 20, 32, 52, 58, 64, 128, 256, 512,
		1024, 2048, 4096, 7856, 12288, 16384, 21490}
	largeSizes = []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20,
		32 << 20, 64 << 20, 128 << 20, 256 << 20, 512 << 20, 1 << 30}
)

// FigureLatency reproduces Figure 3 (GigaE) or Figure 4 (40GI): the
// ping-pong characterization of a testbed network, as two CSV series —
// average one-way latency (µs) for small payloads and minimum one-way
// latency (ms) for large payloads — followed by the fitted regression.
func (c Config) FigureLatency(link *netsim.Link) (string, error) {
	return textOf(c.figureLatency(link))
}

// latency runs the ping-pong characterization of a network on one noise
// stream: the small payloads (none for nil) as averages of 250 round trips,
// then the large ones as minima of 100, and the regression of the large.
func (c Config) latency(link *netsim.Link, stream int64, small []int64) (smallPts, largePts []stats.Point, fit stats.Linear, err error) {
	pp := &netsim.PingPong{Link: link, Noise: c.noise(stream)}
	smallPts = pp.MeasureSmall(small, 250)
	largePts = pp.MeasureLarge(largeSizes, 100)
	fit, err = netsim.FitLarge(largePts)
	return smallPts, largePts, fit, err
}

// figureLatency renders one latency run on stream 11 as the figure's text
// and as one log-log chart of both payload ranges, in bytes and µs.
func (c Config) figureLatency(link *netsim.Link) (string, []chart, error) {
	small, large, fit, err := c.latency(link, 11, smallSizes)
	if err != nil {
		return "", nil, err
	}
	left, right := plot.Series{Name: "small (mean of 250)"}, plot.Series{Name: "large (min of 100)"}
	var smallRows, largeRows [][]string
	for _, p := range small {
		smallRows = append(smallRows, []string{fmt.Sprintf("%.0f", p.X), fmt.Sprintf("%.1f", p.Y)})
		point(&left, p.X, p.Y)
	}
	for _, p := range large {
		largeRows = append(largeRows, []string{fmt.Sprintf("%.2f", p.X), fmt.Sprintf("%.3f", p.Y)})
		point(&right, p.X*(1<<20), p.Y*1e3)
	}

	figure := 3
	if link.Name() == "40GI" {
		figure = 4
	}
	out := fmt.Sprintf("Figure %d — End-to-end latency on the %s network\n\n", figure, link.Name())
	out += "Left (small payloads, average of 250 ping-pongs):\nbytes,one_way_us\n"
	out += csvLines(nil, smallRows)
	out += "\nRight (large payloads, minimum of 100 ping-pongs):\nMB,one_way_ms\n"
	out += csvLines(nil, largeRows)
	out += fmt.Sprintf("\nLinear regression: t(n MB) = %.2f·n %+.2f ms (r = %.4f)\n",
		fit.Slope, fit.Intercept, fit.R)
	out += fmt.Sprintf("Effective one-way bandwidth: %.1f MB/s", netsim.EffectiveBandwidth(fit))
	if reg, ok := link.Regression(); ok {
		out += fmt.Sprintf("   [paper: %.1f·n %+.1f ms, %.1f MB/s]",
			reg.Slope, reg.Intercept, link.Bandwidth())
	}
	return out + "\n", []chart{{fmt.Sprintf("figure%d.svg", figure), &plot.Chart{
		Title:  fmt.Sprintf("Figure %d — %s end-to-end latency", figure, link.Name()),
		XLabel: "payload (bytes)", YLabel: "one-way latency (µs)",
		LogX: true, LogY: true,
		Series: []plot.Series{left, right},
	}}}, nil
}

// FigureSeries renders the execution-time series of Figure 5 (GigaE-based
// model) or Figure 6 (40GI-based model) for one case study as CSV: size,
// CPU, GPU, measured GigaE, measured 40GI, and one estimated column per
// target network.
func (c Config) FigureSeries(cs calib.CaseStudy, model string) (string, error) {
	return textOf(c.figureSeries(cs, model))
}

// figureSeries renders one case study of the campaign under one model as
// the figure's CSV text and as its chart, one series per column.
func (c Config) figureSeries(cs calib.CaseStudy, model string) (string, []chart, error) {
	data, err := c.TableVIData()
	if err != nil {
		return "", nil, err
	}
	d := data[cs]
	est := d.EstGigaEModel
	figure := 5
	if model == "40GI" {
		est = d.Est40GIModel
		figure = 6
	}
	header := []string{"size", "cpu", "gpu", "gigae", "40gi"}
	cols := []map[int]time.Duration{d.CPU, d.GPU, d.MeasuredGigaE, d.Measured40GI}
	ch := &plot.Chart{
		Title:  fmt.Sprintf("Figure %d — %s processing times (%s model)", figure, cs, model),
		XLabel: "problem size", YLabel: "time (" + unitName(cs) + ")",
	}
	for _, name := range []string{"CPU", "local GPU", "GigaE", "40GI"} {
		ch.Series = append(ch.Series, plot.Series{Name: name})
	}
	for _, n := range calib.TargetNetworks() {
		header = append(header, n)
		cols = append(cols, est[n])
		ch.Series = append(ch.Series, plot.Series{Name: n})
	}
	var rows [][]string
	for _, size := range calib.Sizes(cs) {
		row := []string{fmt.Sprint(size)}
		for i, col := range cols {
			row = append(row, fmtPaperUnit(cs, col[size]))
			point(&ch.Series[i], float64(size), inPaperUnit(cs, col[size]))
		}
		rows = append(rows, row)
	}
	title := fmt.Sprintf("Figure %d — Processing times for %s, estimates based on the %s model (times in %s)\n",
		figure, cs, model, unitName(cs))
	return title + csvLines(header, rows), []chart{{fmt.Sprintf("figure%d-%s.svg", figure, csSlug(cs)), ch}}, nil
}

// csSlug returns a filename-friendly case-study name.
func csSlug(cs calib.CaseStudy) string {
	if cs == calib.MM {
		return "mm"
	}
	return "fft"
}
