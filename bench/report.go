package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one metric; the tables below must match BENCHMARK.json
// exactly (a unit test compares them).
type metricDef struct {
	name, unit, better string
}

// endToEndDefs are the gated metrics, reported by every workload with
// tracing off.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_over_ref", "ratio", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"rss_mb", "MiB", "lower"},
}

// perLayerDefs are the ungated metrics of a -trace run, layer = module name.
// A metric that does not apply to a workload reads 0 there.
var perLayerDefs = []metricDef{
	{"protocol.encode_small_ns", "ns", "lower"},
	{"protocol.decode_small_ns", "ns", "lower"},
	{"protocol.encode_launch_ns", "ns", "lower"},
	{"protocol.decode_launch_ns", "ns", "lower"},
	{"protocol.batch_encode_ns", "ns", "lower"},
	{"protocol.batch_decode_ns", "ns", "lower"},
	{"protocol.frame_write_small_ns", "ns", "lower"},
	{"protocol.allocs_per_small_codec", "count", "lower"},
	{"protocol.decode_h2d_16m_ns", "ns", "lower"},
	{"protocol.decode_h2d_16m_alloc_bytes", "B", "lower"},

	{"transport.tcp_small_rtt_over_ref", "ratio", "lower"},
	{"transport.tcp_bulk_over_ref", "ratio", "lower"},
	{"transport.pipe_small_rtt_ns", "ns", "lower"},
	{"transport.pipe_bulk_alloc_bytes", "B", "lower"},
	{"transport.msgs_per_op", "count", "lower"},
	{"transport.bytes_per_op", "B", "lower"},
	{"transport.pool_hit_ratio", "ratio", "higher"},

	{"rcuda.client_self_ns", "ns", "lower"},
	{"rcuda.server_handle_ns", "ns", "lower"},
	{"rcuda.wire_ns", "ns", "lower"},
	{"rcuda.handshake_ns", "ns", "lower"},
	{"rcuda.batch_ops_per_frame", "count", "higher"},
	{"rcuda.batch_frames_per_op", "count", "lower"},
	{"rcuda.query_cache_hit_ratio", "ratio", "higher"},
	{"rcuda.chunks_per_copy", "count", "lower"},
	{"rcuda.retries", "count", "lower"},
	{"rcuda.reconnects", "count", "lower"},

	{"sched.gate_uncontended_ns", "ns", "lower"},
	{"sched.gate_contended_wait_p50_us", "us", "lower"},
	{"sched.gate_contended_wait_p99_us", "us", "lower"},
	{"sched.served", "count", "higher"},
	{"sched.preempted", "count", "lower"},

	{"gpu.local_req_ns", "ns", "lower"},
	{"gpu.local_req_allocs", "count", "lower"},
	{"gpu.local_req_alloc_bytes", "B", "lower"},
	{"gpu.launch_sgemm16_ns", "ns", "lower"},
	{"gpu.allocs_per_launch", "count", "lower"},
	{"gpu.malloc_free_ns", "ns", "lower"},
	{"gpu.memcpy_16m_ns", "ns", "lower"},

	{"broker.pick_4_ns", "ns", "lower"},
	{"broker.pick_64_ns", "ns", "lower"},
	{"broker.open_ns", "ns", "lower"},
	{"broker.dial_ns", "ns", "lower"},
	{"broker.spills_per_session", "count", "lower"},
	{"broker.failovers", "count", "lower"},
	{"broker.migrations", "count", "lower"},

	{"loadgen.scale_down_migrate_ms", "ms", "lower"},
	{"loadgen.classes_100k_ms", "ms", "lower"},
	{"loadgen.sessions_per_s_host", "1/s", "higher"},
	{"des.eventloop_ns_per_event", "ns", "lower"},

	{"harness.ref_rtt_p50_us", "us", "lower"},
	{"harness.ref_stream_gbps", "Gbit/s", "higher"},
	{"harness.ref_memmove_gbps", "Gbit/s", "higher"},
	{"harness.ref_conn_us", "us", "lower"},
	{"harness.ref_cpu_ms", "ms", "lower"},
	{"harness.op_p50_us", "us", "lower"},
	{"harness.op_p99_us", "us", "lower"},
	{"harness.op_tail_pct", "%", "higher"},
	{"harness.op_tail_us", "us", "lower"},
	{"harness.op_p99_over_ref", "ratio", "lower"},
	{"harness.h2d_over_ref", "ratio", "lower"},
	{"harness.d2h_over_ref", "ratio", "lower"},
	{"harness.gbps_h2d", "Gbit/s", "higher"},
	{"harness.gbps_d2h", "Gbit/s", "higher"},
	{"harness.ops_per_s", "1/s", "higher"},
	{"harness.cpu_us_per_op", "us", "lower"},
	{"harness.samples", "count", "higher"},
	{"harness.peak_rss_mb", "MiB", "lower"},
	{"harness.trace_overhead_pct", "%", "lower"},
}

// metricValue and result are the contract's last-line JSON.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult attaches units to exactly the metrics defs lists; a name
// missing from values reads 0 (a per-layer metric that does not apply).
func newResult(defs []metricDef, values map[string]float64, attempted, failed int, violations []string) result {
	r := result{
		Correct:   failed == 0 && len(violations) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio whose base was never measured; JSON has no NaN
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r
}

// printMetrics writes one "workload metric value unit" line per metric, in
// table order.
func printMetrics(w io.Writer, workload string, defs []metricDef, r result) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-16s %-38s %16.6g %s\n", workload, d.name, r.Metrics[d.name].Value, d.unit)
	}
}

// runContext is the self-description printed beside every set of numbers.
type runContext struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Path       string  `json:"path"`
	Load       string  `json:"load"`
}

func newRunContext(seed int64, seconds float64, traced bool) runContext {
	return runContext{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Go:         runtime.Version(),
		Commit:     vcsRevision(),
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		Path:       "loopback, in-process server, Sim-clock device",
		Load:       "closed loop, one client, one generating process",
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsRevision is the commit the binary was built from, when the build ran
// inside a git checkout.
func vcsRevision() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

func printJSON(w io.Writer, label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	if label != "" {
		fmt.Fprintf(w, "%s ", label)
	}
	fmt.Fprintf(w, "%s\n", b)
}
