package report

import (
	"fmt"
	"io"
	"text/tabwriter"

	"rcuda/internal/loadgen"
	"rcuda/internal/protocol"
	"rcuda/internal/sched"
)

// scaleResult is one scenario's row in BENCH_loadscale.json. Everything in
// it derives from seeded virtual-clock runs, so re-running a scenario must
// reproduce its row byte for byte.
type scaleResult struct {
	Name           string  `json:"name"`
	Sessions       int     `json:"sessions"`
	Arrival        string  `json:"arrival"`
	ElapsedMS      int64   `json:"elapsed_ms"`
	PlacedPerSec   float64 `json:"placed_per_sec"`
	QueueWaitP50US int64   `json:"queue_wait_p50_us"`
	QueueWaitP99US int64   `json:"queue_wait_p99_us"`
	Completed      int64   `json:"completed"`
	LostDurable    int64   `json:"lost_durable"`
	LostNonDurable int64   `json:"lost_non_durable"`
	Spills         int64   `json:"spills"`
	Failovers      int64   `json:"failovers"`
	Markdowns      int64   `json:"markdowns"`
	Markups        int64   `json:"markups"`
	Retirements    int64   `json:"retirements"`
	Migrations     int64   `json:"migrations"`
	RetireVetoes   int64   `json:"retire_vetoes"`
	ScaleUps       int64   `json:"scale_ups"`
	ScaleDowns     int64   `json:"scale_downs"`
	Faults         int64   `json:"faults"`
	PeakDaemons    int     `json:"peak_daemons"`
	FinalDaemons   int     `json:"final_daemons"`
	// DaemonsOverTime is the autoscaler trajectory, one fleet size per
	// trajectory sample (1s of virtual time apart).
	DaemonsOverTime []int `json:"daemons_over_time"`
	// Classes breaks queue waits down per offered class; present only for
	// scenarios that declare scheduling classes, so legacy rows are
	// byte-stable.
	Classes []scaleClass `json:"classes,omitempty"`

	// run is the result the row was made from, for the numbers
	// EXPERIMENTS.md explains and the file does not hold.
	run *loadgen.Result
}

// scaleClass is one class's row in a scenario result.
type scaleClass struct {
	Name       string `json:"name"`
	SchedClass string `json:"sched_class"`
	Sessions   int    `json:"sessions"`
	Placements int64  `json:"placements"`
	WaitP50US  int64  `json:"wait_p50_us"`
	WaitP99US  int64  `json:"wait_p99_us"`
}

// scaleFile is BENCH_loadscale.json.
type scaleFile struct {
	Harness   string        `json:"harness"`
	Scenarios []scaleResult `json:"scenarios"`
}

// scenario returns the file's row for the named scenario.
func (f scaleFile) scenario(name string) scaleResult {
	for _, sr := range f.Scenarios {
		if sr.Name == name {
			return sr
		}
	}
	panic(fmt.Sprintf("report: no loadscale scenario %q", name))
}

// loadscale drives the broker's placement, spill and failover paths with
// every loadgen.Scenarios run, closed-loop with the elastic autoscaler, and
// prints its table to log.
func loadscale(log io.Writer) (scaleFile, error) {
	w := tabwriter.NewWriter(log, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tsessions\tplaced\tp50 wait\tp99 wait\tdaemons\tspills\tfailovers\tlost")
	file := scaleFile{Harness: "loadgen-v1"}
	for _, sc := range loadgen.Scenarios() {
		r, err := runFleet(sc.Name, sc.Build())
		if err != nil {
			return file, err
		}
		sr := toScaleResult(sc.Name, r)
		fmt.Fprintf(w, "%s\t%d\t%.0f/s\t%dµs\t%dµs\t%d→%d peak %d\t%d\t%d\t%d\n",
			sr.Name, sr.Sessions, sr.PlacedPerSec, sr.QueueWaitP50US, sr.QueueWaitP99US,
			sr.DaemonsOverTime[0], sr.FinalDaemons, sr.PeakDaemons,
			sr.Spills, sr.Failovers, sr.LostNonDurable)
		file.Scenarios = append(file.Scenarios, sr)
	}
	w.Flush()
	fmt.Fprintln(log)
	return file, nil
}

// runFleet runs one load-generation config and holds it to the fleet's
// invariants: no durable session lost, every session placed.
func runFleet(name string, cfg loadgen.Config) (*loadgen.Result, error) {
	r, err := loadgen.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if r.LostDurable != 0 {
		return nil, fmt.Errorf("%s: %d durable sessions lost — failover invariant broken", name, r.LostDurable)
	}
	if r.Unplaced != 0 {
		return nil, fmt.Errorf("%s: %d sessions never placed — scenario is under-provisioned", name, r.Unplaced)
	}
	return r, nil
}

func toScaleResult(name string, r *loadgen.Result) scaleResult {
	sr := scaleResult{
		Name:           name,
		Sessions:       r.Sessions,
		Arrival:        r.Arrival,
		ElapsedMS:      r.Elapsed.Milliseconds(),
		PlacedPerSec:   round2(r.PlacedPerSec),
		QueueWaitP50US: r.QueueWaitP50.Microseconds(),
		QueueWaitP99US: r.QueueWaitP99.Microseconds(),
		Completed:      r.Completed,
		LostDurable:    r.LostDurable,
		LostNonDurable: r.LostNonDurable,
		Spills:         r.Pool.Spills,
		Failovers:      r.Pool.Failovers,
		Markdowns:      r.Pool.Markdowns,
		Markups:        r.Pool.Markups,
		Retirements:    r.Pool.Retirements,
		Migrations:     r.Pool.Migrations,
		RetireVetoes:   r.Autoscaler.RetireVetoes,
		ScaleUps:       r.Autoscaler.ScaleUps,
		ScaleDowns:     r.Autoscaler.ScaleDowns,
		Faults:         r.Faults,
		PeakDaemons:    r.PeakDaemons,
		FinalDaemons:   r.DaemonsFinal,
		run:            r,
	}
	for _, s := range r.Trajectory {
		sr.DaemonsOverTime = append(sr.DaemonsOverTime, s.Daemons)
	}
	for _, c := range r.Classes {
		if c.SchedClass == protocol.SchedClassUnspecified {
			continue
		}
		row, _ := protocol.ClassRow(c.SchedClass)
		sr.Classes = append(sr.Classes, scaleClass{
			Name:       c.Name,
			SchedClass: sched.Class(row).String(),
			Sessions:   c.Sessions,
			Placements: c.Placements,
			WaitP50US:  c.WaitP50.Microseconds(),
			WaitP99US:  c.WaitP99.Microseconds(),
		})
	}
	return sr
}
