package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
)

// Trace files let site operators feed their own job mixes to the sizing
// study instead of the synthetic generator. The format is a JSON array of
// jobs:
//
//	[
//	  {"id": 0, "case": "MM",  "size": 8192, "arrival_ms": 0},
//	  {"id": 1, "case": "FFT", "size": 4096, "arrival_ms": 1500}
//	]

// jobJSON is the on-disk representation of one job. The optional network
// field names the job's interconnect for heterogeneous clusters.
type jobJSON struct {
	ID        int    `json:"id"`
	Case      string `json:"case"`
	Size      int    `json:"size"`
	ArrivalMS int64  `json:"arrival_ms"`
	Network   string `json:"network,omitempty"`
}

// LoadTrace parses and validates a JSON job trace.
func LoadTrace(r io.Reader) ([]Job, error) {
	var raw []jobJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("cluster: parse trace: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("cluster: data after the trace array")
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("cluster: empty trace")
	}
	jobs := make([]Job, len(raw))
	seen := make(map[int]bool, len(raw))
	for i, rj := range raw {
		if seen[rj.ID] {
			return nil, fmt.Errorf("cluster: duplicate job id %d", rj.ID)
		}
		seen[rj.ID] = true
		var cs calib.CaseStudy
		switch rj.Case {
		case "MM":
			cs = calib.MM
		case "FFT":
			cs = calib.FFT
		default:
			return nil, fmt.Errorf("cluster: job %d has unknown case %q (MM or FFT)", rj.ID, rj.Case)
		}
		if rj.Size <= 0 {
			return nil, fmt.Errorf("cluster: job %d has non-positive size %d", rj.ID, rj.Size)
		}
		if rj.ArrivalMS < 0 {
			return nil, fmt.Errorf("cluster: job %d arrives at negative time %d ms", rj.ID, rj.ArrivalMS)
		}
		jobs[i] = Job{
			ID:      rj.ID,
			CS:      cs,
			Size:    rj.Size,
			Arrival: time.Duration(rj.ArrivalMS) * time.Millisecond,
		}
		if rj.Network != "" {
			link, err := netsim.ByName(rj.Network)
			if err != nil {
				return nil, fmt.Errorf("cluster: job %d: %w", rj.ID, err)
			}
			jobs[i].Network = link
		}
	}
	return jobs, nil
}
