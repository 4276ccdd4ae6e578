package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/workload"
)

// batchSeed drives the inference loop's weight and input generation.
const batchSeed = 7

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

type batchFile struct {
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

// batching runs the DNN inference loop through the full middleware over the
// two testbed interconnects, batched and unbatched. Every output must be
// bit-exact against the oracle.
func batching(out io.Writer) (any, error) {
	file := batchFile{
		Workload: "dnn-inference-loop",
		Layers:   workload.DefaultInferenceLayers,
		Requests: workload.DefaultInferenceRequests,
		Polls:    workload.DefaultInferencePolls,
		Seed:     batchSeed,
	}
	elapsed := map[string]map[bool]float64{}

	w := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "network\tmode\telapsed\tmessages\tbytes out/in\tdigest")
	for _, link := range netsim.Testbed() {
		elapsed[link.Name()] = map[bool]float64{}
		for _, batched := range []bool{false, true} {
			rep, err := workload.RunInference(workload.InferenceOptions{
				Link: link, Batched: batched,
				Layers: file.Layers, Requests: file.Requests, Polls: file.Polls, Seed: file.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("%s batched=%v: %w", link.Name(), batched, err)
			}
			if !rep.Verified {
				return nil, fmt.Errorf("%s batched=%v: output not bit-exact against the oracle", link.Name(), batched)
			}
			mode := "unbatched"
			if batched {
				mode = "batched"
			}
			fmt.Fprintf(w, "%s\t%s\t%v\t%d\t%d/%d\t%016x\n",
				link.Name(), mode, rep.Elapsed, rep.Messages, rep.BytesSent, rep.BytesRecv, rep.Digest)
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
				ModelUS:   perfmodel.InferenceNetTime(link, perfmodel.InferenceSchedule(rep.Spec)).Microseconds(),
			})
		}
	}
	w.Flush()

	file.SpeedupGigaE = round2(elapsed["GigaE"][false] / elapsed["GigaE"][true])
	file.Speedup40GI = round2(elapsed["40GI"][false] / elapsed["40GI"][true])
	fmt.Fprintf(out, "\nspeedup batched vs unbatched: GigaE %.2fx, 40GI %.2fx\n",
		file.SpeedupGigaE, file.Speedup40GI)
	return file, nil
}
