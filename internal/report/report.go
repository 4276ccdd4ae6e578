// Package report regenerates the paper's tables and figures from the
// reproduction stack: the protocol's message breakdown (Table I), the
// network characterization plots (Figures 3 and 4), the per-call and
// per-copy transfer estimates (Tables II, III, V), the model
// cross-validation (Table IV), the projections onto the HPC networks
// (Table VI), the execution-time series behind Figures 5 and 6, and the
// extension Figures 7-9.
//
// Emitters return plain text (aligned with text/tabwriter) or CSV so the
// command-line tools can print or save them. Each figure is one function
// that runs once and returns its text with its charts, which WriteSVGs
// draws; EXPERIMENTS.md reads the same runs.
package report

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/plot"
	"rcuda/internal/workload"
)

// Config parameterizes the simulated measurement campaign behind the
// generated tables.
type Config struct {
	// Reps is the number of executions averaged per data point; the
	// paper uses 30.
	Reps int
	// Seed drives the deterministic noise; runs with the same seed
	// produce identical documents.
	Seed int64
	// Sigma is the relative standard deviation of the modeled
	// measurement noise. Zero disables noise.
	Sigma float64
}

func (c Config) reps() int {
	if c.Reps <= 0 {
		return 1
	}
	return c.Reps
}

func (c Config) noise(stream int64) *netsim.Noise {
	if c.Sigma == 0 {
		return nil
	}
	return netsim.NewNoise(c.Seed*1000+stream, c.Sigma)
}

// measureSeries runs the simulated campaign for one case study on one
// testbed network.
func (c Config) measureSeries(cs calib.CaseStudy, link *netsim.Link, stream int64) (map[int]time.Duration, error) {
	return workload.MeasureSeries(cs, workload.Remote,
		workload.Options{Link: link, Noise: c.noise(stream)}, c.reps())
}

// inPaperUnit converts a duration to the paper's unit for the case study:
// seconds for MM, milliseconds for FFT.
func inPaperUnit(cs calib.CaseStudy, d time.Duration) float64 {
	if cs == calib.MM {
		return d.Seconds()
	}
	return d.Seconds() * 1e3
}

// fmtPaperUnit formats a duration in the paper's unit for the case study.
func fmtPaperUnit(cs calib.CaseStudy, d time.Duration) string {
	return fmt.Sprintf("%.2f", inPaperUnit(cs, d))
}

// unitName names the paper's unit for a case study.
func unitName(cs calib.CaseStudy) string {
	if cs == calib.MM {
		return "s"
	}
	return "ms"
}

// chart is one SVG file of a figure. A figure's function returns its text
// and its charts from one run, so -svg plots exactly what -figure prints.
type chart struct {
	file string
	*plot.Chart
}

// textOf keeps a figure's text and drops its charts.
func textOf(text string, _ []chart, err error) (string, error) { return text, err }

// point appends one point to a chart series.
func point(s *plot.Series, x, y float64) {
	s.X, s.Y = append(s.X, x), append(s.Y, y)
}

// tabulate renders rows with aligned columns.
func tabulate(header []string, rows [][]string) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	_ = w.Flush()
	return sb.String()
}

// csvLines renders comma-separated rows.
func csvLines(header []string, rows [][]string) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(header, ","))
	sb.WriteByte('\n')
	for _, r := range rows {
		sb.WriteString(strings.Join(r, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}
