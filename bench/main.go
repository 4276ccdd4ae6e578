// Command bench is the repository's wall-clock benchmark: it drives the real
// rcuda.Client over loopback TCP into an in-process rcuda.Server (and, for
// two workloads, the fleet simulator and the in-process pipe) through eight
// named workloads, checks every output, and prints every metric by name and
// unit. README.md in this directory defines the metrics and the method;
// BENCHMARK.json at the repository root is the contract it is run under.
//
//	go run ./bench                     all workloads, end-to-end metrics
//	go run ./bench -trace              ... plus the per-layer metrics
//	go run ./bench -workload rtt_small one workload (what the driver runs)
//	go run ./bench -aa 5               A/A: 5 sets, spread against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"

	"rcuda/internal/calib"
	"rcuda/internal/kernels"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	aa       int
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload, in this process")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", 10, "timed seconds per workload")
	fs.BoolVar(&o.trace, "trace", false, "traced run: report the per-layer metrics instead")
	fs.StringVar(&o.traceOut, "trace-out", "", "file the traced run writes its spans to (JSON lines)")
	fs.IntVar(&o.aa, "aa", 0, "run this many sets of the same binary and judge the spread against BENCHMARK.json")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	var err error
	switch {
	case o.workload != "":
		err = runWorkload(o)
	case o.aa > 0:
		err = runAA(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// normalizeArgs lets the boolean -trace also be given as "-trace 0|1", the
// form the benchmark contract uses.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// errIncorrect reports a run that finished but produced a wrong output or
// broke an invariant; the result line has still been printed.
var errIncorrect = fmt.Errorf("outputs incorrect")

// runWorkload measures one workload in this process and prints, last, the
// contract's result line.
func runWorkload(o options) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		return err
	}
	img, err := mod.Binary()
	if err != nil {
		return err
	}
	e := &env{seed: o.seed, mod: mod, img: img}

	var res result
	var defs []metricDef
	if !o.trace {
		m, err := measure(w, e, o.seconds, false)
		if err != nil {
			return err
		}
		defs = endToEndDefs
		res = newResult(defs, m.endToEnd(), m.ops, m.bad, m.violations)
		printViolations(m.violations)
		printMetrics(os.Stdout, w.name, defs, res)
		printHarnessNotes(w.name, m)
	} else {
		// A traced run spends its time on an untraced phase (the baseline
		// the tracing overhead is measured against), the traced phase, and
		// the layer loops.
		plain, err := measure(w, e, o.seconds*0.3, true)
		if err != nil {
			return err
		}
		peakRSS := peakRSSMB() // before the span log and the layer loops add theirs
		te := *e
		te.tr = newTracer()
		traced, err := measure(w, &te, o.seconds*0.4, false)
		if err != nil {
			return err
		}
		loops, err := layerLoops(e)
		if err != nil {
			return err
		}
		values := perLayer(plain, traced, te.tr.recorded(), loops)
		values["harness.peak_rss_mb"] = peakRSS
		violations := append(plain.violations, traced.violations...)
		defs = perLayerDefs
		res = newResult(defs, values, plain.ops+traced.ops, plain.bad+traced.bad, violations)
		printViolations(violations)
		printMetrics(os.Stdout, w.name, defs, res)
		if o.traceOut != "" {
			if err := writeSpans(o.traceOut, te.tr.recorded()); err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	printJSON(os.Stdout, "context", newRunContext(o.seed, o.seconds, o.trace))
	printJSON(os.Stdout, "", res)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func printViolations(vs []string) {
	for _, v := range vs {
		fmt.Printf("violation: %s\n", v)
	}
}

// printHarnessNotes gives the absolute numbers behind the ratios as
// context; they are not gated (a -trace run reports them as harness.*).
func printHarnessNotes(name string, m *measurement) {
	fmt.Printf("%-16s note: %d ops in %d slice pairs over %d rounds, %.1f s; op %.2f us, ref %.2f us (means)\n",
		name, m.ops, len(m.ratios), len(m.setups), m.elapsed.Seconds(),
		float64(m.workTime.Nanoseconds())/1e3/float64(m.ops),
		float64(m.refTime.Nanoseconds())/1e3/float64(m.refOps))
	fmt.Printf("%-16s note: peak RSS %.1f MiB\n", name, peakRSSMB())
	if m.w.copyBytes > 0 {
		fmt.Printf("%-16s note: h2d_over_ref %.4f, d2h_over_ref %.4f\n", name, median(m.h2d), median(m.d2h))
	}
}

// perLayer assembles the per-layer metrics of a traced run: layer counters
// and spans from the traced phase, absolute timings from the untraced one,
// the layer loops' results as they are.
func perLayer(plain, traced *measurement, spans []span, loops map[string]float64) map[string]float64 {
	v := make(map[string]float64, len(perLayerDefs))
	for k, x := range loops {
		v[k] = x
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ops := float64(traced.ops)
	c := func(i int) float64 { return float64(traced.layer[i]) }
	v["transport.msgs_per_op"] = div(c(cMsgsSent), ops)
	v["transport.bytes_per_op"] = div(c(cBytesSent)+c(cBytesRecv), ops)
	v["transport.pool_hit_ratio"] = div(c(cPoolHits), c(cPoolHits)+c(cPoolMisses))
	v["rcuda.batch_ops_per_frame"] = div(c(cBatchedOps), c(cBatchFrames))
	v["rcuda.batch_frames_per_op"] = div(c(cBatchFrames), ops)
	v["rcuda.query_cache_hit_ratio"] = div(c(cCacheHits), c(cCacheHits)+c(cCacheMisses))
	if traced.w.copyBytes > 0 {
		v["rcuda.chunks_per_copy"] = div(c(cBulkFrames), 2*ops)
	}
	v["rcuda.retries"] = c(cRetries)
	v["rcuda.reconnects"] = c(cReconnects)
	v["sched.served"] = c(cServed)
	v["sched.preempted"] = c(cPreempted)
	v["broker.spills_per_session"] = div(c(cSpills), c(cPlacements))
	v["broker.failovers"] = c(cFailovers)
	v["broker.migrations"] = c(cMigrations)
	v["loadgen.scale_down_migrate_ms"] = div(c(cScaleDownNS)/1e6, c(cFleetRuns))
	v["loadgen.classes_100k_ms"] = div(c(cClassesNS)/1e6, c(cFleetRuns))
	v["loadgen.sessions_per_s_host"] = div(c(cFleetRuns)*fleetSessions, (c(cScaleDownNS)+c(cClassesNS))/1e9)

	// Spans: where a call's time went, for workloads that cross a
	// connection. Warm-up ops are traced like timed ones; only the
	// handshake is kept apart.
	tot := totalsByName(spans)
	if calls := float64(tot[spanCall].count); tot[spanCliSend].count > 0 {
		// The client's own time is the self time of every span the client
		// goroutine runs above the connection: dials and Send/Recv are
		// children and so excluded.
		var clientSelf int64
		for _, name := range []string{spanCall, spanPoolOp, spanTraffic, spanClose, spanRefresh} {
			clientSelf += tot[name].selfT
		}
		clientConn := float64(tot[spanCliSend].dur + tot[spanCliRecv].dur)
		handle := float64(tot[spanHandle].dur)
		v["rcuda.client_self_ns"] = div(float64(clientSelf), calls)
		v["rcuda.server_handle_ns"] = div(handle, calls)
		v["rcuda.wire_ns"] = div(clientConn-handle, calls)
		// rcuda.Open runs inside Pool.Open on session_churn: there the
		// handshake is what Pool.Open does besides dialing.
		open := tot[spanOpen]
		if open.count == 0 {
			open = spanTotal{count: tot[spanPoolOp].count, dur: tot[spanPoolOp].dur - tot[spanDial].dur}
		}
		v["rcuda.handshake_ns"] = div(float64(open.dur), float64(open.count))
	}
	v["broker.open_ns"] = div(float64(tot[spanPoolOp].dur), float64(tot[spanPoolOp].count))
	v["broker.dial_ns"] = div(float64(tot[spanDial].dur), float64(tot[spanDial].count))

	// Absolute context, from the untraced phase.
	work := plain.workLog.ns
	slices.Sort(work)
	ref := plain.refLog.ns
	slices.Sort(ref)
	v["harness.samples"] = float64(len(work))
	v["harness.op_p50_us"] = percentileSorted(work, 50) / 1e3
	v["harness.op_p99_us"] = percentileSorted(work, 99) / 1e3
	tail := tailPercentile(len(work))
	v["harness.op_tail_pct"] = tail
	v["harness.op_tail_us"] = percentileSorted(work, tail) / 1e3
	if len(work) >= 1000 && len(ref) >= 1000 {
		v["harness.op_p99_over_ref"] = div(percentileSorted(work, 99), percentileSorted(ref, 99))
	}
	v["harness.ops_per_s"] = div(float64(plain.ops), plain.workTime.Seconds())
	v["harness.cpu_us_per_op"] = div(float64(plain.cpu.Nanoseconds())/1e3, float64(plain.ops))
	if n := plain.w.copyBytes; n > 0 {
		v["harness.h2d_over_ref"] = median(plain.h2d)
		v["harness.d2h_over_ref"] = median(plain.d2h)
		v["harness.gbps_h2d"] = div(float64(n)*8*float64(plain.ops), float64(plain.workLap[0].Nanoseconds()))
		v["harness.gbps_d2h"] = div(float64(n)*8*float64(plain.ops), float64(plain.workLap[1].Nanoseconds()))
	}
	v["harness.trace_overhead_pct"] = 100 * (div(median(traced.ratios), median(plain.ratios)) - 1)
	return v
}

// --- runner ------------------------------------------------------------------

// runChild re-executes this binary for one workload, so set-up time, peak
// RSS and allocator state are per workload, and returns its result line.
func runChild(o options, name string, traced bool, echo bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
	if traced {
		args = append(args, "-trace")
		if o.traceOut != "" {
			ext := filepath.Ext(o.traceOut)
			args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ext)+"-"+name+ext)
		}
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n"))
	last := lines[len(lines)-1]
	if echo {
		os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
		fmt.Println()
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", name, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return res, nil
}

// runAll runs the eight workloads, one child process each, and prints a
// combined, self-describing JSON object last.
func runAll(o options) error {
	type summary struct {
		Context   runContext        `json:"context"`
		Workloads map[string]result `json:"workloads"`
		PerLayer  map[string]result `json:"per_layer,omitempty"`
	}
	if o.trace && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "spans.jsonl")
		if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
			return err
		}
	}
	sum := summary{Context: newRunContext(o.seed, o.seconds, o.trace), Workloads: map[string]result{}}
	if o.trace {
		sum.PerLayer = map[string]result{}
	}
	// End-to-end metrics always come from an untraced child; a -trace run
	// adds a second, traced child per workload.
	modes := []bool{false}
	if o.trace {
		modes = append(modes, true)
	}
	correct := true
	for _, w := range workloads() {
		for _, traced := range modes {
			res, err := runChild(o, w.name, traced, true)
			if err != nil {
				return err
			}
			if traced {
				sum.PerLayer[w.name] = res
			} else {
				sum.Workloads[w.name] = res
			}
			correct = correct && res.Correct
		}
	}
	printJSON(os.Stdout, "", sum)
	if !correct {
		return errIncorrect
	}
	return nil
}
