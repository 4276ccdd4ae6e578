package report

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"rcuda/internal/sched"
)

// schedGate is a scheduler scenario's acceptance thresholds; zero disables
// a gate. The suite refuses to emit a result that breaks the scheduler's
// fairness claims, so a regression fails loudly rather than silently
// rewriting the file.
type schedGate struct {
	// minP99Improvement is the minimum fifoP99/wfqP99 ratio for the
	// realtime class.
	minP99Improvement float64
	// maxThroughputDelta bounds |served_wfq - served_fifo| / served_fifo.
	maxThroughputDelta float64
	// servedRatio, when non-zero, asserts tenant 0's served count is this
	// multiple of tenant 1's under WFQ, within servedRatioTol.
	servedRatio    float64
	servedRatioTol float64
}

// schedGates holds each sched.Scenarios entry's gates: WFQ must cut the
// realtime class's p99 queue wait by sched.MinRealtimeP99Improvement while
// serving the same aggregate throughput within 10%, and split a class 2:1
// by weight.
var schedGates = map[string]schedGate{
	"starvation-1bulk-8rt":  {minP99Improvement: sched.MinRealtimeP99Improvement, maxThroughputDelta: 0.10},
	"starvation-1bulk-32rt": {minP99Improvement: sched.MinRealtimeP99Improvement, maxThroughputDelta: 0.10},
	"weighted-share-2to1":   {maxThroughputDelta: 0.10, servedRatio: 2, servedRatioTol: 0.05},
}

// classRow is one class's outcome under one policy.
type classRow struct {
	Class     string `json:"class"`
	Served    uint64 `json:"served"`
	WaitP50US int64  `json:"wait_p50_us"`
	WaitP99US int64  `json:"wait_p99_us"`
	WaitMaxUS int64  `json:"wait_max_us"`
}

// policyRow is one policy's outcome on a scenario.
type policyRow struct {
	TotalServed uint64     `json:"total_served"`
	BusyFrac    float64    `json:"busy_frac"`
	Preemptions uint64     `json:"preemptions"`
	Classes     []classRow `json:"classes"`
}

// realtimeP99US is the realtime class's p99 queue wait in µs, 0 when the
// mix has no realtime class.
func (p policyRow) realtimeP99US() int64 {
	for _, c := range p.Classes {
		if c.Class == sched.Realtime.String() {
			return c.WaitP99US
		}
	}
	return 0
}

// schedResult is one scenario's row in BENCH_sched.json.
type schedResult struct {
	Name       string    `json:"name"`
	Seed       int64     `json:"seed"`
	DurationMS int64     `json:"duration_ms"`
	Tenants    int       `json:"tenants"`
	FIFO       policyRow `json:"fifo"`
	WFQ        policyRow `json:"wfq"`
	// RTP99ImprovementX is fifo/wfq for the realtime class's p99 queue
	// wait — the headline number (0 when the mix has no realtime class).
	RTP99ImprovementX float64 `json:"rt_p99_improvement_x,omitempty"`
	// ThroughputDeltaFrac is |wfq-fifo|/fifo over total served ops.
	ThroughputDeltaFrac float64 `json:"throughput_delta_frac"`
}

// schedFile is BENCH_sched.json.
type schedFile struct {
	Harness   string        `json:"harness"`
	Scenarios []schedResult `json:"scenarios"`
}

// schedSuite runs every sched.Scenarios mix under FIFO and WFQ, each twice,
// and prints its table to log.
func schedSuite(log io.Writer) (schedFile, error) {
	w := tabwriter.NewWriter(log, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\ttenants\trt p99 fifo\trt p99 wfq\timprovement\tthpt delta\tpreemptions")
	file := schedFile{Harness: "sched-bench-v1"}
	for _, sc := range sched.Scenarios() {
		sr, err := runSchedScenario(w, sc)
		if err != nil {
			return file, err
		}
		file.Scenarios = append(file.Scenarios, sr)
	}
	w.Flush()
	fmt.Fprintln(log)
	return file, nil
}

// runSchedScenario runs one mix under both policies, prints its row and
// applies its gates.
func runSchedScenario(w io.Writer, sc sched.Scenario) (schedResult, error) {
	fifo, err := simulateTwice(sc, sched.FIFO)
	if err != nil {
		return schedResult{}, err
	}
	wfq, err := simulateTwice(sc, sched.WFQ)
	if err != nil {
		return schedResult{}, err
	}
	sr := schedResult{
		Name:                sc.Name,
		Seed:                sc.Seed,
		DurationMS:          sc.Duration.Milliseconds(),
		Tenants:             len(sc.Tenants()),
		FIFO:                toPolicyRow(fifo),
		WFQ:                 toPolicyRow(wfq),
		ThroughputDeltaFrac: round4(sched.ThroughputDelta(fifo, wfq)),
	}
	fifoP99, wfqP99 := fifo.ClassP99(sched.Realtime), wfq.ClassP99(sched.Realtime)
	if wfqP99 > 0 {
		sr.RTP99ImprovementX = round2(float64(fifoP99) / float64(wfqP99))
	}

	fmt.Fprintf(w, "%s\t%d\t%dµs\t%dµs\t%.1fx\t%.2f%%\t%d\n",
		sr.Name, sr.Tenants, fifoP99.Microseconds(), wfqP99.Microseconds(), sr.RTP99ImprovementX,
		sr.ThroughputDeltaFrac*100, sr.WFQ.Preemptions)

	g := schedGates[sc.Name]
	if g.minP99Improvement > 0 && sr.RTP99ImprovementX < g.minP99Improvement {
		return sr, fmt.Errorf("%s: realtime p99 improved only %.2fx (fifo %v, wfq %v), want >= %.0fx",
			sc.Name, sr.RTP99ImprovementX, fifoP99, wfqP99, g.minP99Improvement)
	}
	if g.maxThroughputDelta > 0 && sr.ThroughputDeltaFrac > g.maxThroughputDelta {
		return sr, fmt.Errorf("%s: throughput delta %.4f exceeds %.2f (fifo %d, wfq %d served)",
			sc.Name, sr.ThroughputDeltaFrac, g.maxThroughputDelta, fifo.TotalServed, wfq.TotalServed)
	}
	if g.servedRatio > 0 {
		a, b := wfq.Tenants[0].Served, wfq.Tenants[1].Served
		ratio := float64(a) / float64(b)
		if ratio < g.servedRatio*(1-g.servedRatioTol) || ratio > g.servedRatio*(1+g.servedRatioTol) {
			return sr, fmt.Errorf("%s: served ratio %.3f (%d:%d) outside %.1f±%.0f%%",
				sc.Name, ratio, a, b, g.servedRatio, g.servedRatioTol*100)
		}
	}
	return sr, nil
}

// simulateTwice runs the scenario twice under policy p and insists the runs
// agree byte for byte — the determinism the freshness test depends on.
func simulateTwice(sc sched.Scenario, p sched.Policy) (*sched.SimResult, error) {
	a := sched.Simulate(sc.Config(p))
	b := sched.Simulate(sc.Config(p))
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		return nil, fmt.Errorf("%s: two identically-seeded %s runs diverged:\n%s\n%s", sc.Name, p, ja, jb)
	}
	return a, nil
}

func toPolicyRow(r *sched.SimResult) policyRow {
	row := policyRow{
		TotalServed: r.TotalServed,
		BusyFrac:    round4(r.BusyFrac),
		Preemptions: r.Preemptions,
	}
	for _, c := range r.Classes {
		row.Classes = append(row.Classes, classRow{
			Class:     c.Class.String(),
			Served:    c.Served,
			WaitP50US: c.WaitP50.Microseconds(),
			WaitP99US: c.WaitP99.Microseconds(),
			WaitMaxUS: c.WaitMax.Microseconds(),
		})
	}
	return row
}
