// Command rcuda-loadgen is the scale-test harness: it drives the broker's
// placement, spill, and failover paths with 10^4–10^6 simulated sessions on
// a virtual clock (internal/loadgen), closed-loop with the elastic
// autoscaler, and writes the deterministic trajectory to a JSON file
// (BENCH_loadscale.json in the repo) for regression tracking.
//
// Scenarios are fixed and seeded, so the file is byte-reproducible:
//
//	rcuda-loadgen                     # run all scenarios, refresh BENCH_loadscale.json
//	rcuda-loadgen -out ""             # print only
//	rcuda-loadgen -check -cap 10000   # CI: re-run scenarios ≤ cap sessions and
//	                                  # fail if the committed file is stale
//	rcuda-loadgen -sessions 1000000   # ad-hoc extra run at a given scale (print only)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"rcuda/internal/broker"
	"rcuda/internal/loadgen"
	"rcuda/internal/protocol"
	"rcuda/internal/sched"
)

// scenarioResult is one scenario's row in the bench file. Everything in it
// derives from seeded virtual-clock runs, so re-running a scenario must
// reproduce its row byte for byte.
type scenarioResult struct {
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
	Classes []classResult `json:"classes,omitempty"`
}

// classResult is one class's row in a scenario result.
type classResult struct {
	Name       string `json:"name"`
	SchedClass string `json:"sched_class"`
	Sessions   int    `json:"sessions"`
	Placements int64  `json:"placements"`
	WaitP50US  int64  `json:"wait_p50_us"`
	WaitP99US  int64  `json:"wait_p99_us"`
}

type benchFile struct {
	Harness   string           `json:"harness"`
	Scenarios []scenarioResult `json:"scenarios"`
}

func toResult(name string, r *loadgen.Result) scenarioResult {
	sr := scenarioResult{
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
	}
	for _, s := range r.Trajectory {
		sr.DaemonsOverTime = append(sr.DaemonsOverTime, s.Daemons)
	}
	for _, c := range r.Classes {
		if c.SchedClass == protocol.SchedClassUnspecified {
			continue
		}
		sr.Classes = append(sr.Classes, classResult{
			Name:       c.Name,
			SchedClass: sched.Class(c.SchedClass - 1).String(), // a wire code is the class plus one
			Sessions:   c.Sessions,
			Placements: c.Placements,
			WaitP50US:  c.WaitP50.Microseconds(),
			WaitP99US:  c.WaitP99.Microseconds(),
		})
	}
	return sr
}

func runScenario(sc loadgen.Scenario) scenarioResult {
	cfg := sc.Build()
	r, err := loadgen.Run(cfg)
	if err != nil {
		log.Fatalf("%s: %v", sc.Name, err)
	}
	if r.LostDurable != 0 {
		log.Fatalf("%s: %d durable sessions lost — failover invariant broken", sc.Name, r.LostDurable)
	}
	if r.Unplaced != 0 {
		log.Fatalf("%s: %d sessions never placed — scenario is under-provisioned", sc.Name, r.Unplaced)
	}
	return toResult(sc.Name, r)
}

func printRow(w *tabwriter.Writer, sr scenarioResult) {
	fmt.Fprintf(w, "%s\t%d\t%.0f/s\t%dµs\t%dµs\t%d→%d peak %d\t%d\t%d\t%d\n",
		sr.Name, sr.Sessions, sr.PlacedPerSec, sr.QueueWaitP50US, sr.QueueWaitP99US,
		sr.DaemonsOverTime[0], sr.FinalDaemons, sr.PeakDaemons,
		sr.Spills, sr.Failovers, sr.LostNonDurable)
}

func main() {
	out := flag.String("out", "BENCH_loadscale.json", "bench file to write (or verify with -check); empty disables")
	check := flag.Bool("check", false, "re-run scenarios within -cap and fail if the bench file is stale")
	cap := flag.Int("cap", 10_000, "with -check, only re-run scenarios of at most this many sessions")
	adhoc := flag.Int("sessions", 0, "additionally run an ad-hoc scenario at this scale (print only)")
	flag.Parse()

	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tsessions\tplaced\tp50 wait\tp99 wait\tdaemons\tspills\tfailovers\tlost")

	if *check {
		checkFresh(*out, *cap, w)
		return
	}

	var file benchFile
	file.Harness = "loadgen-v1"
	for _, sc := range loadgen.Scenarios() {
		sr := runScenario(sc)
		printRow(w, sr)
		file.Scenarios = append(file.Scenarios, sr)
	}
	w.Flush()

	if *adhoc > 0 {
		runAdhoc(*adhoc)
	}

	if *out == "" {
		return
	}
	blob, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// checkFresh re-runs every scenario small enough for the cap and compares
// its row against the committed bench file; any drift — code changed the
// numbers but the file was not regenerated — is a failure. Rows above the
// cap are only checked for presence (the full run regenerates them).
func checkFresh(path string, cap int, w *tabwriter.Writer) {
	blob, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("read %s: %v (run `make bench-scale` to generate it)", path, err)
	}
	var file benchFile
	if err := json.Unmarshal(blob, &file); err != nil {
		log.Fatalf("parse %s: %v", path, err)
	}
	committed := make(map[string]scenarioResult, len(file.Scenarios))
	for _, sr := range file.Scenarios {
		committed[sr.Name] = sr
	}

	stale := false
	for _, sc := range loadgen.Scenarios() {
		want, ok := committed[sc.Name]
		if !ok {
			fmt.Printf("MISSING %s: not in %s\n", sc.Name, path)
			stale = true
			continue
		}
		if want.Sessions > cap {
			fmt.Printf("skip %s: %d sessions over the %d check cap\n", sc.Name, want.Sessions, cap)
			continue
		}
		got := runScenario(sc)
		printRow(w, got)
		if !equalResults(got, want) {
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			fmt.Printf("STALE %s:\n  committed: %s\n  recomputed: %s\n", sc.Name, wj, gj)
			stale = true
		}
	}
	w.Flush()
	if stale {
		log.Fatalf("%s is stale: run `make bench-scale` and commit the result", path)
	}
	fmt.Printf("%s is fresh\n", path)
}

func equalResults(a, b scenarioResult) bool {
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	return string(aj) == string(bj)
}

// runAdhoc runs one extra scenario at the requested scale — the nightly
// million-session run — and prints it without touching the bench file.
func runAdhoc(sessions int) {
	start := time.Now()
	r, err := loadgen.Run(loadgen.Config{
		Seed: 9, Sessions: sessions, Arrival: loadgen.Poisson,
		Rate: 100_000, Classes: loadgen.StandardMix(), InitialDaemons: 8, DaemonCapacity: 64,
		Autoscale: &broker.AutoscalerConfig{
			Min: 8, Max: 128, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
		},
	})
	if err != nil {
		log.Fatalf("adhoc: %v", err)
	}
	if r.LostDurable != 0 {
		log.Fatalf("adhoc: %d durable sessions lost", r.LostDurable)
	}
	fmt.Printf("\nadhoc %d sessions: %.0f placements/s virtual, p99 wait %v, peak %d daemons, wall %v\n",
		sessions, r.PlacedPerSec, r.QueueWaitP99, r.PeakDaemons, time.Since(start).Round(time.Millisecond))
}

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }
