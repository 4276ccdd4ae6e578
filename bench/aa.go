package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the A/A run needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs o.aa sets of every workload with the same binary and judges
// each end-to-end metric × workload the way the benchmark contract does:
// the interquartile distance over the sets as a share of their median must
// stay within the metric's bound (setup_s exempt), and the median of the
// second half of the sets must not be worse than the first half's by more
// than the bound (setup_s too). Set i runs with seed o.seed+i.
func runAA(o options) error {
	if o.aa < 2 {
		return fmt.Errorf("-aa needs at least 2 sets")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from BENCHMARK.json in the current directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for set := 0; set < o.aa; set++ {
		so := o
		so.seed = o.seed + int64(set)
		for _, w := range workloads() {
			res, err := runChild(so, w.name, false, false)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("set %d, %s: %w", set, w.name, errIncorrect)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], mv.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", set+1, o.aa, w.name)
		}
	}
	fmt.Printf("A/A over %d sets (seeds %d..%d), %.0f s per run\n", o.aa, o.seed, o.seed+int64(o.aa)-1, o.seconds)
	fmt.Printf("%-16s %-20s %14s %9s %9s %7s  %s\n", "workload", "metric", "median", "spread", "drift", "bound", "verdict")
	exceeded := 0
	for _, w := range workloads() {
		for _, d := range bf.EndToEnd {
			xs := values[w.name][d.Name]
			half := len(xs) / 2
			first, second := median(xs[:half]), median(xs[len(xs)-half:])
			drift := (second - first) / math.Abs(first)
			if d.Better == "higher" {
				drift = -drift
			}
			sp := spread(xs)
			verdict := "ok"
			switch {
			case drift > d.Bound, d.Name != "setup_s" && sp > d.Bound:
				verdict = "EXCEEDED"
				exceeded++
			case d.Name != "setup_s" && sp > d.Bound/3:
				verdict = "ok (above a third of the bound)"
			}
			fmt.Printf("%-16s %-20s %14.6g %8.2f%% %+8.2f%% %6.0f%%  %s\n",
				w.name, d.Name, median(xs), 100*sp, 100*drift, 100*d.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric × workload pairs exceeded their bound", exceeded)
	}
	return nil
}
