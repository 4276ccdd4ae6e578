package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rcuda/internal/gpu"
)

// Measurement method, shared by every workload (see README.md):
//
//   - closed loop, one client: the CUDA API is synchronous, so the caller
//     waits for each reply before issuing the next call;
//   - the timed phase is a sequence of rounds, each on a fresh server and
//     connection after a warm-up; a round's set-up time is one setup_s
//     sample;
//   - a round alternates slices of the stdlib-only reference loop and of
//     the work loop; every ratio metric is the median over all slice pairs
//     of (work time per op / reference time per op), so drift of the
//     machine between runs — 25-45 % on the absolute numbers of a small
//     shared sandbox — cancels.

const (
	pairsPerRound = 2
	minRounds     = 6
	// roundSeconds is the share of the requested duration one round gets.
	// Which cores the kernel puts a connection's two threads on makes its
	// round trips bimodal (5 vs 8 us here) for as long as the placement
	// lasts; many short rounds, each on fresh goroutines and sockets, sample
	// the placements instead of betting a run on a few of them.
	roundSeconds = 0.5
	// sliceShare is the part of the requested duration spent inside timed
	// slices; the rest is left for the rounds' set-ups.
	sliceShare = 0.8
)

// env is what a workload's set-up gets from the harness.
type env struct {
	seed int64
	mod  *gpu.Module
	img  []byte
	tr   *tracer // nil unless this is the traced phase of a -trace run
}

// counters is what a round can report about the layers under it, as
// cumulative values indexed by the constants below; the harness differences
// two snapshots.
type counters [numCounters]int64

const (
	cMsgsSent = iota // client connection, transport.Stats
	cBytesSent
	cBytesRecv
	cPoolHits
	cPoolMisses
	cBulkFrames  // frames of at least bulkThreshold bytes (traced runs)
	cBatchFrames // rcuda.ClientStats
	cBatchedOps
	cCacheHits
	cCacheMisses
	cRetries
	cReconnects
	cServed // scheduler grants and preemptions, all classes
	cPreempted
	cPlacements // sessions placed, live (Pool) or simulated (loadgen)
	cSpills
	cFailovers
	cMigrations
	cFleetRuns // fleet_place ops, and host nanoseconds per fleet shape
	cScaleDownNS
	cClassesNS
	numCounters
)

func (a counters) sub(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a counters) add(b counters) counters {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// round is one fresh deployment of a workload, warmed up and ready.
type round struct {
	work opFunc
	ref  opFunc
	// snapshot reports the cumulative layer counters; nil when the
	// workload has none.
	snapshot func() counters
	// close tears the deployment down and returns the post-round
	// invariants that did not hold (leaked device memory, retries, ...).
	close func() []string
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// copyBytes is the payload per direction of a copy workload, whose ops
	// report host→device and device→host laps; zero for every other.
	copyBytes int
	// setup deploys one round. An error from it ends the whole run (and the
	// process), so its error paths release nothing.
	setup func(e *env) (*round, error)
}

// sampleLog holds per-op times of one loop kind in nanoseconds. It makes
// room only between slices, so the timed path never allocates. A slice's
// samples are all the end-to-end metrics need, so by default the log is
// rewound before every slice and the process's memory does not grow with
// the run; a -trace run keeps them all for its pooled percentiles.
type sampleLog struct {
	ns   []uint32
	keep bool
}

const sliceSampleRoom = 1 << 18

func (l *sampleLog) reserve() {
	if !l.keep {
		l.ns = l.ns[:0]
	}
	if cap(l.ns)-len(l.ns) < sliceSampleRoom {
		grown := make([]uint32, len(l.ns), 2*cap(l.ns)+sliceSampleRoom)
		copy(grown, l.ns)
		l.ns = grown
	}
}

// sliceStat is one slice's outcome.
type sliceStat struct {
	ops    int
	bad    int
	opTime time.Duration // sum of per-op times (laps only, for copy ops)
	lap    laps          // sums of the two laps
	first  int           // index of the slice's first sample in the log
}

// perOp is the slice's time per op: the median of its samples, which a
// stray preemption or GC cycle cannot move, or the mean when the slice is
// too short to have a median worth the name. It sorts the slice's part of
// the log in place.
func (s sliceStat) perOp(l *sampleLog) float64 {
	if s.ops >= 3 {
		return medianU32(l.ns[s.first : s.first+s.ops])
	}
	return float64(s.opTime) / float64(s.ops)
}

// runSlice runs op in a closed loop for at least d (and at least once).
func runSlice(d time.Duration, op opFunc, log *sampleLog) (sliceStat, error) {
	st := sliceStat{first: len(log.ns)}
	room := cap(log.ns) - len(log.ns)
	start := time.Now()
	prev := start
	for {
		l, bad, err := op()
		now := time.Now()
		if err != nil {
			return st, err
		}
		dt := now.Sub(prev)
		if l != (laps{}) {
			dt = l[0] + l[1]
			st.lap[0] += l[0]
			st.lap[1] += l[1]
		}
		prev = now
		st.ops++
		st.opTime += dt
		if bad {
			st.bad++
		}
		if st.ops <= room {
			ns := dt.Nanoseconds()
			if ns > 1<<32-1 {
				ns = 1<<32 - 1
			}
			log.ns = append(log.ns, uint32(ns))
		}
		if now.Sub(start) >= d {
			break
		}
	}
	if st.ops > room {
		return st, fmt.Errorf("slice ran %d ops, sample log had room for %d", st.ops, room)
	}
	return st, nil
}

// procUsage is the process's cumulative resource use.
type procUsage struct {
	mallocs, allocBytes uint64
	cpu                 time.Duration
}

func readUsage() procUsage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procUsage{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, cpu: cpu}
}

// residentMB is the process's resident set right now, from
// /proc/self/statm (second field, in pages); 0 where that cannot be read.
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// measurement is everything one timed phase of one workload produced.
type measurement struct {
	w *workload

	setups  []float64 // seconds, one per round
	ratios  []float64 // per slice pair: work per-op / ref per-op
	h2d     []float64 // per slice pair: lap ratios (copy workloads)
	d2h     []float64
	workLog sampleLog
	refLog  sampleLog

	ops, bad   int
	refOps     int
	workTime   time.Duration // sum of work op times
	refTime    time.Duration
	workLap    laps
	cpu        time.Duration // process CPU time over the work slices
	allocs     []float64     // per work slice: mallocs per op, whole process
	allocBytes []float64     // per work slice: allocated bytes per op
	rss        []float64     // resident MiB at the end of each work slice
	layer      counters      // deltas between warm-up end and round end
	violations []string
	elapsed    time.Duration
}

// measure runs the workload's rounds for about the given duration.
func measure(w *workload, e *env, seconds float64, keepSamples bool) (*measurement, error) {
	m := &measurement{w: w, workLog: sampleLog{keep: keepSamples}, refLog: sampleLog{keep: keepSamples}}
	rounds := int(seconds / roundSeconds)
	if rounds < minRounds {
		rounds = minRounds
	}
	slice := time.Duration(seconds * sliceShare / float64(rounds*pairsPerRound*2) * float64(time.Second))
	begin := time.Now()
	deadline := begin.Add(time.Duration(seconds * float64(time.Second)))
	pairs := 0
	for r := 0; r < rounds; r++ {
		// Long-op workloads overrun their slices; stop on the clock once
		// there are enough pairs for a median.
		if pairs >= 3 && time.Now().After(deadline) {
			break
		}
		t0 := time.Now()
		rd, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		var before counters
		if rd.snapshot != nil {
			before = rd.snapshot()
		}
		for p := 0; p < pairsPerRound; p++ {
			if p > 0 && pairs >= 3 && time.Now().After(deadline) {
				break
			}
			// Alternate which loop goes first so a drift within the pair
			// does not always favour the same side.
			if err := m.pair(rd, slice, pairs%2 == 1); err != nil {
				rd.close()
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			pairs++
		}
		if rd.snapshot != nil {
			m.layer = m.layer.add(rd.snapshot().sub(before))
		}
		m.violations = append(m.violations, rd.close()...)
		// Collect the round's garbage (device memory, peers' buffers) now,
		// so the next round starts from the same heap and the resident set
		// does not depend on where a GC cycle happened to fall.
		runtime.GC()
	}
	m.elapsed = time.Since(begin)
	return m, nil
}

// pair runs one reference slice and one work slice.
func (m *measurement) pair(rd *round, d time.Duration, workFirst bool) error {
	var ws, rs sliceStat
	runWork := func() error {
		m.workLog.reserve()
		u0 := readUsage()
		var err error
		ws, err = runSlice(d, rd.work, &m.workLog)
		u1 := readUsage()
		m.cpu += u1.cpu - u0.cpu
		m.rss = append(m.rss, residentMB())
		if err == nil {
			m.allocs = append(m.allocs, float64(u1.mallocs-u0.mallocs)/float64(ws.ops))
			m.allocBytes = append(m.allocBytes, float64(u1.allocBytes-u0.allocBytes)/float64(ws.ops))
		}
		return err
	}
	runRef := func() error {
		m.refLog.reserve()
		var err error
		rs, err = runSlice(d, rd.ref, &m.refLog)
		return err
	}
	first, second := runRef, runWork
	if workFirst {
		first, second = runWork, runRef
	}
	if err := first(); err != nil {
		return err
	}
	if err := second(); err != nil {
		return err
	}
	m.ops += ws.ops
	m.bad += ws.bad
	m.refOps += rs.ops
	m.workTime += ws.opTime
	m.refTime += rs.opTime
	m.ratios = append(m.ratios, ws.perOp(&m.workLog)/rs.perOp(&m.refLog))
	if m.w.copyBytes > 0 {
		for i := range ws.lap {
			m.workLap[i] += ws.lap[i]
		}
		lapRatio := func(i int) float64 {
			return (float64(ws.lap[i]) / float64(ws.ops)) / (float64(rs.lap[i]) / float64(rs.ops))
		}
		m.h2d = append(m.h2d, lapRatio(0))
		m.d2h = append(m.d2h, lapRatio(1))
	}
	return nil
}

// endToEnd returns the gated metrics, by BENCHMARK.json name.
func (m *measurement) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":            median(m.setups),
		"op_over_ref":        median(m.ratios),
		"allocs_per_op":      median(m.allocs),
		"alloc_bytes_per_op": median(m.allocBytes),
		"rss_mb":             median(m.rss),
	}
}
