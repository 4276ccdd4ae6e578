// Command rcuda-bench-batch benchmarks the batched data path: it runs the
// DNN inference-loop workload through the full middleware over the two
// testbed interconnects, batched and unbatched, on the simulation clock —
// so the numbers are deterministic and comparable across commits — and
// writes the trajectory to a JSON file (BENCH_batching.json in the repo)
// for regression tracking.
//
//	rcuda-bench-batch                  # print the table, refresh BENCH_batching.json
//	rcuda-bench-batch -out ""          # print only
//	rcuda-bench-batch -requests 128    # heavier serving loop
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/workload"
)

// benchResult is one (network, mode) cell of the trajectory.
type benchResult struct {
	Network   string `json:"network"`
	Batched   bool   `json:"batched"`
	ElapsedUS int64  `json:"elapsed_us"`
	Messages  int64  `json:"messages"`
	BytesSent int64  `json:"bytes_sent"`
	BytesRecv int64  `json:"bytes_recv"`
	Digest    string `json:"digest"`
	Verified  bool   `json:"verified"`
	// ModelUS is perfmodel's analytic wire time for the same session, plus
	// the device waits its schedule exposes; the gap to ElapsedUS is the
	// device residual, near zero by construction.
	ModelUS int64 `json:"model_us"`
}

type benchFile struct {
	Workload string        `json:"workload"`
	Layers   int           `json:"layers"`
	Requests int           `json:"requests"`
	Polls    int           `json:"polls"`
	Seed     int64         `json:"seed"`
	Results  []benchResult `json:"results"`
	// SpeedupGigaE/Speedup40GI are the headline batched-over-unbatched
	// whole-session ratios, the numbers regressions watch.
	SpeedupGigaE float64 `json:"speedup_gigae"`
	Speedup40GI  float64 `json:"speedup_40gi"`
}

func main() {
	out := flag.String("out", "BENCH_batching.json", "trajectory file to write; empty disables")
	layers := flag.Int("layers", workload.DefaultInferenceLayers, "dense layers per request")
	requests := flag.Int("requests", workload.DefaultInferenceRequests, "requests per session")
	polls := flag.Int("polls", workload.DefaultInferencePolls, "event polls per request")
	seed := flag.Int64("seed", 7, "weight/input generation seed")
	flag.Parse()

	file := benchFile{
		Workload: "dnn-inference-loop",
		Layers:   *layers, Requests: *requests, Polls: *polls, Seed: *seed,
	}
	elapsed := map[string]map[bool]float64{}

	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "network\tmode\telapsed\tmessages\tbytes out/in\tdigest")
	for _, link := range netsim.Testbed() {
		for _, batched := range []bool{false, true} {
			rep, err := workload.RunInference(workload.InferenceOptions{
				Link: link, Batched: batched,
				Layers: *layers, Requests: *requests, Polls: *polls, Seed: *seed,
			})
			if err != nil {
				log.Fatalf("%s batched=%v: %v", link.Name(), batched, err)
			}
			if !rep.Verified {
				log.Fatalf("%s batched=%v: output not bit-exact against the oracle", link.Name(), batched)
			}
			mode := "unbatched"
			if batched {
				mode = "batched"
			}
			fmt.Fprintf(w, "%s\t%s\t%v\t%d\t%d/%d\t%016x\n",
				link.Name(), mode, rep.Elapsed, rep.Messages, rep.BytesSent, rep.BytesRecv, rep.Digest)
			if elapsed[link.Name()] == nil {
				elapsed[link.Name()] = map[bool]float64{}
			}
			elapsed[link.Name()][batched] = float64(rep.Elapsed)
			file.Results = append(file.Results, benchResult{
				Network:   link.Name(),
				Batched:   batched,
				ElapsedUS: rep.Elapsed.Microseconds(),
				Messages:  rep.Messages,
				BytesSent: rep.BytesSent,
				BytesRecv: rep.BytesRecv,
				Digest:    fmt.Sprintf("%016x", rep.Digest),
				Verified:  rep.Verified,
				ModelUS:   perfmodel.InferenceNetTime(link, rep.Spec).Microseconds(),
			})
		}
	}
	w.Flush()

	file.SpeedupGigaE = round2(elapsed["GigaE"][false] / elapsed["GigaE"][true])
	file.Speedup40GI = round2(elapsed["40GI"][false] / elapsed["40GI"][true])
	fmt.Printf("\nspeedup batched vs unbatched: GigaE %.2fx, 40GI %.2fx\n",
		file.SpeedupGigaE, file.Speedup40GI)

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

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }
