package report

import (
	"fmt"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/plot"
	"rcuda/internal/workload"
)

// Figure7 is an extension beyond the paper: the FFT case study with the
// batch split into chunks and double-buffered on two device streams
// (asynchronous transfers are the paper's declared future work). The
// figure reports, per network and batch size, the synchronous execution
// time, the pipelined time, and the relative gain — quantifying how much
// of the remoting overhead server-side overlap can hide on each
// interconnect.
func (c Config) Figure7(chunks int) (string, error) {
	return textOf(c.figure7(chunks))
}

// pipelineRun is one batch of Figure 7: its synchronous and its pipelined
// remote FFT time on every network, in netsim.All() order.
type pipelineRun struct {
	batch       int
	sync, piped []time.Duration
}

// gainPc is the share of the synchronous time that pipelining hides on the
// i-th network, in percent.
func (r pipelineRun) gainPc(i int) float64 {
	return (1 - float64(r.piped[i])/float64(r.sync[i])) * 100
}

// pipelineRuns times each batch on every network, synchronously on noise
// stream 31 and split into chunks on stream 32.
func (c Config) pipelineRuns(chunks int, batches []int) ([]pipelineRun, error) {
	var runs []pipelineRun
	for _, size := range batches {
		run := pipelineRun{batch: size}
		for _, link := range netsim.All() {
			sync, err := workload.Run(calib.FFT, size, workload.Remote,
				workload.Options{Link: link, Noise: c.noise(31)})
			if err != nil {
				return nil, err
			}
			piped, err := workload.RunPipelined(size, chunks,
				workload.Options{Link: link, Noise: c.noise(32)})
			if err != nil {
				return nil, err
			}
			run.sync, run.piped = append(run.sync, sync.Total), append(run.piped, piped.Total)
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// figure7 runs every FFT batch that splits into the chunks and renders the
// times as the figure's CSV text and each network's gain as its chart.
func (c Config) figure7(chunks int) (string, []chart, error) {
	if chunks < 2 {
		chunks = 8
	}
	var batches []int
	for _, size := range calib.Sizes(calib.FFT) {
		if size%chunks == 0 {
			batches = append(batches, size)
		}
	}
	runs, err := c.pipelineRuns(chunks, batches)
	if err != nil {
		return "", nil, err
	}
	header := []string{"batch"}
	ch := &plot.Chart{
		Title:  fmt.Sprintf("Figure 7 — Pipelined remote FFT, %d chunks, 2 streams", chunks),
		XLabel: "batch", YLabel: "time hidden by pipelining (%)",
	}
	for _, l := range netsim.All() {
		header = append(header, l.Name()+" sync", l.Name()+" piped", "gain %")
		ch.Series = append(ch.Series, plot.Series{Name: l.Name()})
	}
	var rows [][]string
	for _, r := range runs {
		row := []string{fmt.Sprint(r.batch)}
		for i := range r.sync {
			row = append(row, fmtMS(r.sync[i]), fmtMS(r.piped[i]), fmt.Sprintf("%.1f", r.gainPc(i)))
			point(&ch.Series[i], float64(r.batch), r.gainPc(i))
		}
		rows = append(rows, row)
	}
	out := fmt.Sprintf("Figure 7 (extension) — Pipelined remote FFT, %d chunks, 2 streams (times in ms)\n", chunks)
	return out + csvLines(header, rows), []chart{{"figure7.svg", ch}}, nil
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds()*1e3)
}
