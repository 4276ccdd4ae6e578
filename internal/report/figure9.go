package report

import (
	"fmt"

	"rcuda/internal/calib"
	"rcuda/internal/contention"
	"rcuda/internal/netsim"
	"rcuda/internal/plot"
)

// Figure9 is the third extension figure: the multi-client contention study
// (the paper's final future-work item). For each testbed network it sweeps
// the number of concurrent clients sharing one GPU server and reports the
// mean per-client slowdown relative to a lone client, plus the shared
// link's and the GPU's busy fractions — exposing which resource saturates
// first on each interconnect.
func (c Config) Figure9(maxClients int) (string, error) {
	return textOf(c.figure9(maxClients))
}

// contentionSweep is one case study at size 8192 on one testbed network,
// run with 1 to maxClients clients.
type contentionSweep struct {
	cs      calib.CaseStudy
	net     string
	results []contention.Result
}

// contentionSweeps runs Figure 9's four sweeps: MM over GigaE and 40GI,
// then FFT over both.
func contentionSweeps(maxClients int) ([]contentionSweep, error) {
	var sweeps []contentionSweep
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		for _, link := range netsim.Testbed() {
			results, err := contention.Sweep(contention.Params{CS: cs, Size: 8192, Link: link}, maxClients)
			if err != nil {
				return nil, err
			}
			sweeps = append(sweeps, contentionSweep{cs, link.Name(), results})
		}
	}
	return sweeps, nil
}

// figure9 renders the sweeps as the figure's CSV text and their slowdown
// curves as its chart.
func (c Config) figure9(maxClients int) (string, []chart, error) {
	if maxClients < 2 {
		maxClients = 8
	}
	sweeps, err := contentionSweeps(maxClients)
	if err != nil {
		return "", nil, err
	}
	out := fmt.Sprintf("Figure 9 (extension) — Per-client slowdown sharing one GPU server (1-%d clients)\n", maxClients)
	ch := &plot.Chart{
		Title:  "Figure 9 — Per-client slowdown sharing one GPU server",
		XLabel: "concurrent clients", YLabel: "mean slowdown (x)",
	}
	for _, sw := range sweeps {
		out += fmt.Sprintf("\n%s size 8192 over %s:\nclients,mean_slowdown,p95_turnaround_ms,link_util,gpu_util\n",
			sw.cs, sw.net)
		s := plot.Series{Name: fmt.Sprintf("%s/%s", sw.cs, sw.net)}
		var rows [][]string
		for i, slow := range contention.Slowdown(sw.results) {
			r := sw.results[i]
			rows = append(rows, []string{
				fmt.Sprint(i + 1),
				fmt.Sprintf("%.2f", slow),
				fmt.Sprintf("%.1f", contention.P95Turnaround(r).Seconds()*1e3),
				fmt.Sprintf("%.2f", r.LinkUtilization),
				fmt.Sprintf("%.2f", r.GPUUtilization),
			})
			point(&s, float64(i+1), slow)
		}
		out += csvLines(nil, rows)
		ch.Series = append(ch.Series, s)
	}
	return out, []chart{{"figure9.svg", ch}}, nil
}
