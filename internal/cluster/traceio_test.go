package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"rcuda/internal/calib"
)

func TestTraceRoundTrip(t *testing.T) {
	jobs := GenerateTrace(TraceConfig{Jobs: 20, MeanInterarrival: time.Second, MMFraction: 0.5, Seed: 9})
	// The trace file a site operator would write for these jobs.
	var buf bytes.Buffer
	buf.WriteString("[")
	for i, j := range jobs {
		if i > 0 {
			buf.WriteString(",\n")
		}
		fmt.Fprintf(&buf, `{"id": %d, "case": %q, "size": %d, "arrival_ms": %d}`,
			j.ID, j.CS.String(), j.Size, j.Arrival.Milliseconds())
	}
	buf.WriteString("]")
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("loaded %d jobs, want %d", len(got), len(jobs))
	}
	for i := range jobs {
		if got[i].ID != jobs[i].ID || got[i].CS != jobs[i].CS || got[i].Size != jobs[i].Size {
			t.Fatalf("job %d changed: %+v vs %+v", i, got[i], jobs[i])
		}
		// Arrival precision is milliseconds in the file format.
		diff := got[i].Arrival - jobs[i].Arrival
		if diff < -time.Millisecond || diff > time.Millisecond {
			t.Fatalf("job %d arrival drifted by %v", i, diff)
		}
	}
}

func TestLoadTraceValid(t *testing.T) {
	in := `[
	  {"id": 0, "case": "MM",  "size": 8192, "arrival_ms": 0},
	  {"id": 1, "case": "FFT", "size": 4096, "arrival_ms": 1500}
	]`
	jobs, err := LoadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("%d jobs", len(jobs))
	}
	if jobs[0].CS != calib.MM || jobs[1].CS != calib.FFT {
		t.Fatal("case studies wrong")
	}
	if jobs[1].Arrival != 1500*time.Millisecond {
		t.Fatalf("arrival %v", jobs[1].Arrival)
	}
}

func TestLoadTraceErrors(t *testing.T) {
	cases := map[string]string{
		"not json":      `{`,
		"empty":         `[]`,
		"unknown case":  `[{"id":0,"case":"BLAS","size":8,"arrival_ms":0}]`,
		"zero size":     `[{"id":0,"case":"MM","size":0,"arrival_ms":0}]`,
		"negative time": `[{"id":0,"case":"MM","size":8,"arrival_ms":-5}]`,
		"duplicate id":  `[{"id":0,"case":"MM","size":8,"arrival_ms":0},{"id":0,"case":"MM","size":8,"arrival_ms":1}]`,
		"unknown field": `[{"id":0,"case":"MM","size":8,"arrival_ms":0,"color":"red"}]`,
	}
	for name, in := range cases {
		if _, err := LoadTrace(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
}

func TestLoadedTraceSimulates(t *testing.T) {
	in := `[
	  {"id": 0, "case": "MM", "size": 4096, "arrival_ms": 0},
	  {"id": 1, "case": "MM", "size": 4096, "arrival_ms": 100}
	]`
	jobs, err := LoadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(baseConfig(1), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || len(res.Jobs) != 2 {
		t.Fatalf("simulation of loaded trace: %+v", res)
	}
}
