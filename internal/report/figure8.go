package report

import (
	"fmt"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/plot"
)

// Figure8 is a second extension figure: a continuous bandwidth sensitivity
// sweep. For one problem size per case study it plots the estimated remote
// execution time against interconnect bandwidth (geometrically sampled),
// together with the local CPU baseline and the exact bandwidth floor where
// remoting starts to pay — generalizing Figures 5 and 6 from five discrete
// networks to the whole bandwidth axis.
func (c Config) Figure8(mmSize, fftBatch int, points int) (string, error) {
	return textOf(c.figure8(mmSize, fftBatch, points))
}

// figure8 sweeps each case study's GigaE model (measured on noise stream
// 41) and renders the sweep as the figure's CSV text and as one chart per
// case study.
func (c Config) figure8(mmSize, fftBatch int, points int) (string, []chart, error) {
	if points < 2 {
		points = 24
	}
	ge := netsim.GigaE()
	out := "Figure 8 (extension) — Remote execution time vs interconnect bandwidth\n"
	var charts []chart
	for _, sel := range []struct {
		cs   calib.CaseStudy
		size int
	}{{calib.MM, mmSize}, {calib.FFT, fftBatch}} {
		meas, err := c.measureSeries(sel.cs, ge, 41)
		if err != nil {
			return "", nil, err
		}
		model, err := perfmodel.Build(sel.cs, ge, meas)
		if err != nil {
			return "", nil, err
		}
		pts, err := perfmodel.BandwidthSweep(model, sel.size, 50, 8000, points)
		if err != nil {
			return "", nil, err
		}
		out += fmt.Sprintf("\n%s size %d (times in %s):\nbandwidth_MBps,remote,cpu\n",
			sel.cs, sel.size, unitName(sel.cs))
		remote, cpu := plot.Series{Name: "remote GPU"}, plot.Series{Name: "local CPU"}
		var rows [][]string
		for _, p := range pts {
			rows = append(rows, []string{
				fmt.Sprintf("%.0f", p.BandwidthMBps),
				fmtPaperUnit(sel.cs, p.Remote),
				fmtPaperUnit(sel.cs, p.CPU),
			})
			point(&remote, p.BandwidthMBps, inPaperUnit(sel.cs, p.Remote))
			point(&cpu, p.BandwidthMBps, inPaperUnit(sel.cs, p.CPU))
		}
		out += csvLines(nil, rows)
		if bw, ok := perfmodel.MinimumBandwidth(model, sel.size); ok {
			out += fmt.Sprintf("bandwidth floor: %.0f MB/s\n", bw)
		} else {
			out += "bandwidth floor: none — not worth remoting at any speed\n"
		}
		charts = append(charts, chart{fmt.Sprintf("figure8-%s.svg", csSlug(sel.cs)), &plot.Chart{
			Title:  fmt.Sprintf("Figure 8 — %s size %d vs interconnect bandwidth", sel.cs, sel.size),
			XLabel: "one-way bandwidth (MB/s)", YLabel: "time (" + unitName(sel.cs) + ")",
			LogX:   true,
			Series: []plot.Series{remote, cpu},
		}})
	}
	return out, charts, nil
}
