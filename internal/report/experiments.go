package report

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"rcuda/internal/broker"
	"rcuda/internal/calib"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/loadgen"
	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/protocol"
	"rcuda/internal/rcuda"
	"rcuda/internal/vclock"
)

// File is one generated file of the repository root: its name and bytes.
type File struct {
	Name string
	Data []byte
}

// benchRuns are the campaign's simulations: the three BENCH suites, which
// EXPERIMENTS.md quotes, and the runs only the document reads.
type benchRuns struct {
	batching  batchFile
	sched     schedFile
	loadscale scaleFile
	// bursty is the 50 000-session bursty run with seeded faults; classBlind
	// is scale-100k-classes again under LeastLoaded.
	bursty, classBlind *loadgen.Result
	// tableVI is the measurement campaign behind Tables IV and VI, live the
	// pool broker's placement of the sizing study's jobs, and copies the
	// 64 MiB copy of each of simCopies.
	tableVI map[calib.CaseStudy]TableVIResult
	live    broker.LiveResult
	copies  [len(simCopies)]time.Duration
}

// simCopies are the copies the chunking and retry extensions quote: the
// single-frame and chunked protocols on 40GI and on GigaE, then 40GI
// chunked again with the retry/reconnect layer.
var simCopies = [...]simCopy{
	{netsim.IB40G(), false, false}, {netsim.IB40G(), true, false},
	{netsim.GigaE(), false, false}, {netsim.GigaE(), true, false},
	{netsim.IB40G(), true, true},
}

// Generate runs the virtual-clock campaign once and returns the four files
// it determines, EXPERIMENTS.md first, then BENCH_batching.json,
// BENCH_sched.json and BENCH_loadscale.json. The document quotes the
// campaign's results, so every simulation runs once and each gate has one
// owner.
func (c Config) Generate(log io.Writer) ([]File, error) {
	runs, err := c.campaign(log)
	if err != nil {
		return nil, err
	}
	doc, err := c.experiments(runs)
	if err != nil {
		return nil, err
	}
	files := []File{{Name: "EXPERIMENTS.md", Data: []byte(doc + "\n")}}
	for _, f := range []struct {
		name string
		v    any
	}{
		{"BENCH_batching.json", runs.batching},
		{"BENCH_sched.json", runs.sched},
		{"BENCH_loadscale.json", runs.loadscale},
	} {
		blob, err := json.MarshalIndent(f.v, "", "  ")
		if err != nil {
			return nil, err
		}
		files = append(files, File{Name: f.name, Data: append(blob, '\n')})
	}
	return files, nil
}

// campaign starts the independent simulations at once — each is a pure
// function of its seed — and waits for all of them. Each writes only its own
// field of the result; the three suites print their tables into buffers of
// their own, which go to log in a fixed order, and the first error in the
// jobs' order is returned.
func (c Config) campaign(log io.Writer) (benchRuns, error) {
	var runs benchRuns
	var tables [3]bytes.Buffer
	jobs := []func() error{
		func() (err error) { runs.batching, err = batching(&tables[0]); return named("batching", err) },
		func() (err error) { runs.sched, err = schedSuite(&tables[1]); return named("sched", err) },
		func() (err error) { runs.loadscale, err = loadscale(&tables[2]); return named("loadscale", err) },
		func() (err error) { runs.bursty, err = runFleet("bursty-50k", burstyConfig()); return err },
		func() (err error) { runs.classBlind, err = loadgen.Run(classBlindConfig()); return err },
		func() (err error) { runs.tableVI, err = c.TableVIData(); return err },
		func() (err error) {
			runs.live, err = broker.SimulateLive(netsim.IB40G(), 3, broker.ExperimentJobs())
			return err
		},
	}
	for i, sc := range simCopies {
		jobs = append(jobs, func() (err error) { runs.copies[i], err = simCopyTime(sc); return err })
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = job()
		}()
	}
	wg.Wait()
	for i := range tables {
		_, _ = tables[i].WriteTo(log) // progress output: a failed write loses no result
	}
	return runs, cmp.Or(errs...)
}

// named prefixes a suite's error with the suite's name.
func named(suite string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", suite, err)
	}
	return nil
}

// burstyConfig is the document's scale run: 50 000 bursty sessions on an
// elastic fleet with seeded daemon faults.
func burstyConfig() loadgen.Config {
	return loadgen.Config{
		Seed:           12,
		Sessions:       50_000,
		Arrival:        loadgen.BurstyOnOff,
		Rate:           25_000,
		Classes:        loadgen.StandardMix(),
		InitialDaemons: 4,
		DaemonCapacity: 64,
		Autoscale: &broker.AutoscalerConfig{
			Min: 4, Max: 48, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
		},
		FaultPlan: faults.Seeded(13, faults.Config{ResetRate: 0.003, StallRate: 0.01}),
	}
}

// classBlindConfig is scale-100k-classes with only the policy changed, to
// LeastLoaded: the same load the ledger compares ClassAware's spills with.
func classBlindConfig() loadgen.Config {
	cfg := loadgen.ScenarioConfig("scale-100k-classes")
	cfg.Policy = broker.LeastLoaded
	return cfg
}

// experiments renders the EXPERIMENTS.md document: for every table and
// figure of the paper, the reproduction's numbers next to the published
// ones, with relative deltas, then the extensions, which quote the BENCH
// suites' runs. The document is fully regenerated from the simulation
// campaign, so it reflects whatever the code currently does.
func (c Config) experiments(runs benchRuns) (string, error) {
	var sb strings.Builder
	sb.WriteString(`# EXPERIMENTS — paper vs. reproduction

Regenerate with ` + "`make experiments`" + fmt.Sprintf(
		" (seed %d, %d repetitions, %.1f%% noise).\n\n", c.Seed, c.reps(), c.Sigma*100))
	sb.WriteString(`Absolute numbers come from a calibrated simulator (see DESIGN.md §1), so
"measured" columns track the paper by construction; the *reproduced results*
are the derived quantities — fixed times, cross-validation error rates, and
target-network projections — which the estimation-model code recomputes from
the simulated measurements exactly as the paper's method prescribes.

`)

	c.expTableI(&sb)
	if err := c.expFigures34(&sb); err != nil {
		return "", err
	}
	c.expTableII(&sb)
	c.expTablesIIIandV(&sb)
	c.expTableIV(&sb, runs.tableVI)
	c.expTableVI(&sb, runs.tableVI)
	c.expFigures56(&sb, runs.tableVI)
	if err := c.expExtensions(&sb, runs); err != nil {
		return "", err
	}
	expWallClock(&sb)
	expLedger(&sb, runs)
	return sb.String(), nil
}

// expWallClock says where the wall-clock numbers are: nothing in this
// document is measured on the host, so it quotes none.
func expWallClock(sb *strings.Builder) {
	sb.WriteString(`## Wall-clock measurements

This document is virtual-clock only: wall-clock numbers come from the
repository benchmark, ` + "`bash bench/run.sh`" + ` (BENCHMARK.json), and each
performance PR's paired runs are in its CHANGES.md entry.

`)
}

// expLedger renders the ledger of committed numbers nobody has explained,
// the document's last section. Each row cites where the number was
// committed; a row whose numbers the campaign computes quotes the campaign.
func expLedger(sb *strings.Builder, runs benchRuns) {
	sb.WriteString(`## Ledger: committed numbers nobody has explained

A committed number nobody can explain is a bug until it is explained
(ROADMAP, needle 3). Each open entry names the ROADMAP item that owns it.
An entry closes with a cause or a fix, and stays listed with it.

| number | committed in | since | owner | status |
|---|---|---|---|---|
`)
	classAware := runs.loadscale.scenario("scale-100k-classes")
	rows := [][5]string{
		{fmt.Sprintf("`ClassAware` placement spills %d times where `LeastLoaded` spills %d times on the same load of %d sessions",
			classAware.Spills, runs.classBlind.Pool.Spills, classAware.Sessions),
			"BENCH_loadscale.json `scale-100k-classes`, and its `LeastLoaded` re-run in this document's campaign",
			"PR 14", "item 1d: the placer's decision log says why each walk spilled",
			"open. CHANGES.md, PR 14 names a candidate cause: the class row has no placed-since-probe guard. " +
				"While placements also walked fleets with no free slot, `LeastLoaded` read 1756 here, 89 % of it such walks, against 9 % of `ClassAware`'s 17219 (DESIGN.md §10, \"Free slots\")"},
		{"`memcpy_bulk` `rss_mb` is bimodal, 87.1 or 93.6 MiB, on identical code", "CHANGES.md, PR 22 and PR 26",
			"PR 22", "item 3b: an A/A run across sessions",
			"open. The unverified reading: with a third of an allocation per op the collector hardly runs, so set-up decides the mode"},
		{"`rcuda.wire_ns` 47.7 → 39.4 µs (−17 %) on code PR 21 did not touch", "DESIGN.md §7, CHANGES.md PR 21",
			"PR 21", "item 1c: spans the program emits replace `bench/span.go`'s `spanConn`, which measured it", "open"},
		{"`fleet_place` `rss_mb` 25.26 → 27.65 MiB (+9.5 %)", "CHANGES.md, PR 26", "PR 26", "—",
			"**closed.** The load generator's session table and arrival queue, two slices sized from `Config.Sessions` (5.6 MB live through each 10⁵-session run), set the level. " +
				"With records reused and the queues linked through them (DESIGN.md §10, \"Memory follows concurrency\"), `rss_mb` reads 18.6–20.2 MiB over seeds 1–3 against 24.8–25.0 at the parent; " +
				"the same change with a record table and a queue sized from `Config.Sessions` kept live through each run, and nothing else, reads 25.8–26.2"},
		{"`infer_batched` 0–0.064 stray allocations per op", "CHANGES.md, PR 22", "PR 22", "—",
			"**closed by PR 26.** Two `sync.Pool`s on the call path, the TCP receive-buffer holder and the device's launch frames, which every GC empties. " +
				"A connection now keeps its receive buffer, and a launch passes its execution context by value, so nothing on the call path lives in a pool (DESIGN.md §4 and §7). " +
				"`TestBatchedInferenceAllocatesNothingAfterGC` holds it at 0"},
		{"Round-robin cursor parity with marked-down daemons and a blocked head", "DESIGN.md §10", "PR 14", "—",
			"**gone with failed walks.** How many failed walks happened moved the cursor, and with it `Pool.Spills`, never the daemon a session landed on. " +
				"A placement now walks only while some daemon has a free slot (DESIGN.md §10, \"Free slots\"), so every walk lands and only walks that land move the cursor"},
		{"BENCH_batching.json batched `model_us` 80 µs under `elapsed_us` on GigaE, 0.65 %",
			"BENCH_batching.json as first regenerated for PR 27, before the model priced the wait", "PR 27", "—",
			"**closed by PR 27.** The synchronization that closes a frame waits on the server for the frame's input copy and 24 launches, 2.21 µs per request on the modeled C1060. " +
				"A synchronization of its own used to overlap them with its own flight. `perfmodel` now prices the wait (`InferenceMsg.Wait`), and the committed gap is back to 9 µs (0.07 %)"},
	}
	for _, r := range rows {
		fmt.Fprintf(sb, "| %s |\n", strings.Join(r[:], " | "))
	}
}

func (c Config) expExtensions(sb *strings.Builder, runs benchRuns) error {
	sb.WriteString("## Extensions beyond the paper\n\n")
	// Pipelined FFT (Figure 7's run, noiseless, at one representative
	// batch): the overlap gain on 40GI and GigaE, the first two networks.
	pipelined, err := Config{}.pipelineRuns(8, []int{8192})
	if err != nil {
		return err
	}
	fast, slow := pipelined[0].gainPc(1), pipelined[0].gainPc(0)
	fmt.Fprintf(sb, `- **Asynchronous pipelining (Figure 7, `+"`-figure 7`"+`)**: splitting the
  FFT batch into 8 double-buffered chunks hides %.1f%% of the remote
  execution time on 40GI, where the device engines are the bottleneck. On
  GigaE the same pipelining *loses* %.1f%%: each mid-size chunk pays the
  TCP-window excess that one large transfer amortizes, so chunked
  asynchronous transfers only pay off once the interconnect is fast and
  clean — a concrete answer to the paper's deferred future work.
- **Cluster sizing (Example_clusterPlan, BenchmarkClusterSweep)**: list
  scheduling of synthetic job traces over the calibrated profiles answers
  "how many GPUs does the cluster need"; at the light utilization the
  paper's premise assumes, 1-2 shared GPUs per 8-16 nodes match the fully
  equipped cluster's makespan within 10%%.
`, fast, -slow)

	// Contention (Figure 9's MM sweep over 40GI): the per-client slowdown
	// of four clients sharing the server against a lone one.
	sweeps, err := contentionSweeps(4)
	if err != nil {
		return err
	}
	lone, shared := sweeps[1].results[0], sweeps[1].results[3]
	fmt.Fprintf(sb, `- **Multi-client contention (Figure 9, `+"`-figure 9`"+`)**: an event-level
  simulation (internal/des) of clients sharing one GPU server's link and
  device. Four MM clients on 40GI run %.1fx slower each than a lone client
  (GPU-bound, %.0f%% device utilization); on GigaE the wire saturates first
  for the FFT — the paper's last future-work item, quantified.

`, shared.PerClient[3].Seconds()/lone.PerClient[0].Seconds(), shared.GPUUtilization*100)

	// Chunked memcpy pipeline (BenchmarkMemcpyPipeline): the modeled times
	// of one large copy through the real middleware over the simulated
	// links, with and without the chunked protocol (simCopies).
	fastLegacy, fastChunked, slowLegacy, slowChunked := runs.copies[0], runs.copies[1], runs.copies[2], runs.copies[3]
	fmt.Fprintf(sb, `- **Chunked memcpy pipeline (BenchmarkMemcpyPipeline)**: a cudaMemcpy above
  a threshold can stream as ~1 MiB chunks so the server overlaps receiving
  chunk k+1 with pushing chunk k across PCIe. A 64 MiB host-to-device copy
  on 40GI drops from %.1f to %.1f sim-ms (%.0f%% faster, approaching
  max(wire, PCIe) instead of their sum); on GigaE the same copy *rises*
  from %.0f to %.0f sim-ms because every chunk pays the TCP-window excess
  one large frame amortizes — so chunking is opt-in
  (rcuda.WithChunkedTransfers) and the default wire format is unchanged.
  On a real socket the pooled zero-copy framing that carries the chunks
  stages none of them (TestChunkedCopyPairAllocations); over the simulated pipe a pair allocates nothing (TestChunkedCopyAllocatesNothing).

`, simMS(fastLegacy), simMS(fastChunked),
		(1-fastChunked.Seconds()/fastLegacy.Seconds())*100,
		simMS(slowLegacy), simMS(slowChunked))

	// Fault injection and retry (chaos suite): report the fault-free cost
	// of the retry layer against its <1% acceptance target. On a fault-free
	// connection the retry layer adds no wire traffic after the one-off
	// session hello (which precedes the measured window), so the two 40GI
	// chunked times must come out identical; the modeled comparison is
	// deterministic, keeping this document byte-stable across
	// regenerations. The wall-clock CPU-side cost lives in
	// BenchmarkMemcpyPipeline's chunked vs chunked+retry modes.
	basePer, retryPer := fastChunked, runs.copies[4]
	fmt.Fprintf(sb, `- **Fault injection and session recovery (`+"`make chaos` / `make soak`"+`)**: a
  deterministic fault layer (internal/faults, transport.FaultyConn) injects
  connection resets, truncated frames, stalls, partial writes and latency
  spikes at scripted or seeded operation indices, and the client heals
  through them: idempotent calls retry with exponential backoff while the
  session reattaches to its durable server state, so the MM and FFT
  workloads finish bit-exact through ~8%% fault rates (50-seed chaos sweep
  under -race; 10k-op soak at ~1%%). Fault-free cost: the durable session
  adds one 4+12-byte SessionHello exchange at open and zero wire traffic
  per subsequent call — a 64 MiB chunked copy on 40GI models %.1f sim-ms
  plain vs %.1f sim-ms retrying (%+.2f%%) — and the CPU-side bookkeeping
  is timed by the wall-clock benchmark, not quoted here (tcp/chunked vs
  tcp/chunked+retry in BenchmarkMemcpyPipeline; <1%% target).

`, simMS(basePer), simMS(retryPer),
		(retryPer.Seconds()/basePer.Seconds()-1)*100)

	// Live pool broker: a mixed MM/FFT batch placed on three in-process
	// daemons through the real wire protocol, its makespan against the
	// cluster simulator's list-scheduling prediction.
	live := runs.live
	counts := make([]int, 3)
	for _, p := range live.Placements {
		counts[p]++
	}
	fmt.Fprintf(sb, `- **Live GPU pool broker (internal/broker, `+"`make pool`"+`)**: a client-side
  broker federates several rcudad servers behind one Runtime — health
  probes over a StatsQuery protocol op feed least-loaded, round-robin, or
  network-aware placement, busy servers spill to the next-best endpoint,
  and a session lost mid-job is replayed on another server. Placing the
  sizing study's job mix (%d MM/FFT jobs) on three live in-process daemons
  under least-loaded yields a %0.3f ms makespan against the cluster
  simulator's %0.3f ms prediction (%+.2f%%, asserted under 5%% in
  TestLiveMakespanMatchesPrediction; placements %v across the servers) —
  the live system lands on the offline model's schedule, with the residual
  being real wire framing versus the analytic transfer estimate. Killing
  one of three servers mid-batch leaves every job's result bit-identical
  to a local run, with each extra invocation accounted as exactly one
  failover (TestChaosKillServerMidBatch, under -race).

`, len(live.Placements), simMS(live.Makespan), simMS(live.Predicted),
		live.Delta()*100, counts)

	// API-call batching + query caching: the batching suite's four cells,
	// each bit-exact and all on one digest.
	inf := runs.batching
	ge, geBatched := inf.cell("GigaE", false), inf.cell("GigaE", true)
	ib, ibBatched := inf.cell("40GI", false), inf.cell("40GI", true)
	// Unbatched round trips per request: the messages one more request adds
	// to the session's schedule.
	spec := perfmodel.InferenceSpec{Layers: inf.Layers, Polls: inf.Polls}
	oneRequest := spec
	oneRequest.Requests = 1
	perRequest := len(perfmodel.InferenceSchedule(oneRequest)) - len(perfmodel.InferenceSchedule(spec))
	fmt.Fprintf(sb, `- **API-call batching + query caching (rcuda.WithBatching, BENCH_batching.json)**:
  fire-and-forget calls (async copies, kernel launches, event records,
  memsets) coalesce into one wire frame that the next synchronizing call
  flushes — or closes, riding it, when it is a synchronization or
  completion query — immutable device-query replies are cached for the
  lifetime of the connection, and the client answers a poll of the event
  it has just synchronized itself. A %d-layer dense inference loop serving
  %d requests — %d round trips per request unbatched — runs %.2fx faster
  on GigaE (%.1f → %.1f sim-ms) and %.2fx on 40GI (%.1f → %.1f sim-ms),
  with bit-identical outputs in all four cells (digest %s) and the
  analytic schedule in internal/perfmodel pinning the wire exactly
  (TestInferenceModelCrossValidation: 0.00%% error both directions). The
  frame byte cap defaults to %d KiB because a frame past GigaE's
  small-message regime (~21 KB) pays the same TCP-window excess that
  bites chunking and pipelining above — batching must stay small to win.

`, inf.Layers, inf.Requests, perRequest,
		inf.SpeedupGigaE, usMS(ge.ElapsedUS), usMS(geBatched.ElapsedUS),
		inf.Speedup40GI, usMS(ib.ElapsedUS), usMS(ibBatched.ElapsedUS),
		ge.Digest, rcuda.DefaultBatchBytes>>10)

	// Scale harness + elastic autoscaling: a virtual-clock run through the
	// broker's real Placer with chaos kills, deterministic from its seed,
	// then the two BENCH_loadscale.json rows whose numbers needed
	// explaining.
	scale := runs.bursty
	classes := runs.loadscale.scenario("scale-100k-classes")
	if err := checkClassBlind(classes.run, runs.classBlind); err != nil {
		return err
	}
	fmt.Fprintf(sb, `- **Million-session scale harness + elastic autoscaling (internal/loadgen,
  BENCH_loadscale.json)**: a goroutine-free event loop (des.EventLoop) drives
  simulated client sessions through the broker's real Placer — the same
  placement, spill, stampede-guard, and failover code the live pool runs —
  with seeded Poisson or bursty ON/OFF arrivals, while broker.Autoscaler
  (target-occupancy control with hysteresis and cooldown) grows and
  shrinks the simulated daemon fleet through a ScaleDriver that drains a
  retiring daemon by live-migrating its residents to peers and vetoes the
  retirement when they do not fit. %d bursty sessions with seeded daemon faults
  place at %.0f sessions/s of virtual time (p99 queue wait %.1f ms), the
  fleet tracks the bursts %d→%d daemons and hands them back (%d
  retirements), and the %d injected faults (crashes and stalls) cost %d
  failovers and %d lost best-effort sessions, every one accounted —
  zero durable sessions lost, re-asserted on every regeneration and at
  10^5–10^6 scale in CI and the nightly run.
  A million-session run allocates under 1.01 MB (TestMillionSessions) and is
  byte-reproducible from its seed (BENCH_loadscale.json).
  BENCH_loadscale.json's `+"`scale-down-migrate`"+` row reported 908143 spills for
  10000 sessions while every refused attempt, and every arrival behind a
  blocked head, re-walked the full fleet. One ranking per placement, full
  marks (DESIGN.md §9) and a blocked head brought it to 367172, nearly
  all of it walks of a fleet with no free slot: each completion freed one
  slot, the head of the queue took it, and the next session walked the
  still-full fleet. Placing only while some daemon has a free slot
  (DESIGN.md §10) leaves %d with every other number unchanged, and that
  remainder is real: each is a full daemon without a full mark ranked ahead
  of the one with room, because the ranking runs on gauges up to one 50 ms
  probe period old and every probe clears the marks.
  Its `+"`scale-100k-classes`"+` row reports the same p50/p99 placement wait for
  all three classes (%.1f / %.1f ms here) because that wait is class-blind
  by construction — the fleet queue is one FIFO and a session is placed
  the instant any daemon has room, so the class and the policy only choose
  which daemon: the same run under least-loaded reproduces every class's
  wait distribution to the nanosecond (checked on every regeneration;
  per-class means %.1f / %.1f / %.1f µs differ by sampling only).

`, scale.Sessions, scale.PlacedPerSec, simMS(scale.QueueWaitP99),
		minDaemons(scale), scale.PeakDaemons, scale.Pool.Retirements,
		scale.Faults, scale.Pool.Failovers, scale.LostNonDurable,
		runs.loadscale.scenario("scale-down-migrate").Spills,
		usMS(classes.QueueWaitP50US), usMS(classes.QueueWaitP99US),
		simUS(classes.run.Classes[0].WaitMean), simUS(classes.run.Classes[1].WaitMean), simUS(classes.run.Classes[2].WaitMean))

	// Per-device WFQ scheduler: the sched suite's headline row,
	// starvation-1bulk-8rt — one saturating batch pipeline vs eight sporadic
	// realtime tenants on one device — which the suite has gated.
	starved := runs.sched.Scenarios[0]
	fmt.Fprintf(sb, `- **Per-device WFQ scheduler with priority classes (internal/sched,
  BENCH_sched.json)**: the daemon's per-device dispatch runs through a
  virtual-time weighted-fair-queueing queue with realtime > batch >
  besteffort classes, preempting only at op boundaries so bit-exactness
  is untouched. In the starvation scenario — one batch tenant keeping a
  64-deep async pipeline on the device while 8 realtime tenants fire
  sporadic small launches — FIFO makes every realtime op queue behind
  the whole pipeline (p99 wait %.1f ms); WFQ's class weights lift the
  realtime class past the backlog at the next boundary (p99 %.2f ms), a
  %.0fx improvement at %.2f%% aggregate-throughput difference (%d vs %d
  ops served). Per-class queue waits surface in StatsSnapshot and the
  stats probe's class block, which the broker's class-aware policy ranks
  for placement; deterministic from its seed (BENCH_sched.json).

`, usMS(starved.FIFO.realtimeP99US()), usMS(starved.WFQ.realtimeP99US()),
		starved.RTP99ImprovementX, 100*starved.ThroughputDeltaFrac,
		starved.FIFO.TotalServed, starved.WFQ.TotalServed)
	return nil
}

// checkClassBlind verifies the explanation the document gives for
// scale-100k-classes' identical per-class waits: per-class percentiles
// equal the fleet's, and blind, the same run under least-loaded, has the
// same waits exactly.
func checkClassBlind(classes, blind *loadgen.Result) error {
	for i, c := range classes.Classes {
		if c.WaitP50 != classes.QueueWaitP50 || c.WaitP99 != classes.QueueWaitP99 {
			return fmt.Errorf("report: class %s placement wait differs from the fleet's: the queue is no longer class-blind", c.Name)
		}
		if b := blind.Classes[i]; c.WaitP99 != b.WaitP99 || c.WaitMax != b.WaitMax || c.WaitMean != b.WaitMean {
			return fmt.Errorf("report: class %s placement wait depends on the policy (%v vs %v)", c.Name, c.WaitMean, b.WaitMean)
		}
	}
	return nil
}

// minDaemons is the smallest fleet size the trajectory visited.
func minDaemons(r *loadgen.Result) int {
	if len(r.Trajectory) == 0 {
		return 0
	}
	min := r.Trajectory[0].Daemons
	for _, s := range r.Trajectory {
		if s.Daemons < min {
			min = s.Daemons
		}
	}
	return min
}

// usMS converts a whole number of µs, as the BENCH files hold them, to ms.
func usMS(us int64) float64 { return float64(us) / 1000 }

func simMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func simUS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }

// simCopy is one client configuration simCopyTime measures.
type simCopy struct {
	link              *netsim.Link
	chunked, retrying bool
}

// simCopyTime measures one 64 MiB MemcpyToDevice through the full
// client/server middleware over a simulated link: in the paper's
// single-frame protocol or as chunked transfers, and with or without the
// retry/reconnect layer, whose reconnects dial the same daemon. The setup
// mirrors BenchmarkMemcpyPipeline's sim sub-benchmarks.
func simCopyTime(c simCopy) (time.Duration, error) {
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		return 0, err
	}
	img, err := mod.Binary()
	if err != nil {
		return 0, err
	}
	const size = 64 << 20
	clk := vclock.NewSim()
	daemon := rcuda.NewSimDaemon(rcuda.NewServer(gpu.New(gpu.Config{Clock: clk})), c.link, clk, nil)
	var opts []rcuda.ClientOption
	if c.chunked {
		opts = append(opts, rcuda.WithChunkedTransfers(1, protocol.DefaultChunkSize))
	}
	if c.retrying {
		opts = append(opts, rcuda.WithRetry(4, 200*time.Microsecond), rcuda.WithReconnect(daemon.Dial))
	}
	client, err := daemon.Open(img, opts...)
	if err != nil {
		_ = daemon.Wait()
		return 0, err
	}
	var elapsed time.Duration
	ptr, err := client.Malloc(size)
	if err == nil {
		start := clk.Now()
		err = client.MemcpyToDevice(ptr, make([]byte, size))
		elapsed = clk.Now() - start
	}
	if closeErr := client.Close(); err == nil {
		err = closeErr
	}
	if waitErr := daemon.Wait(); err == nil {
		err = waitErr
	}
	return elapsed, err
}

func (c Config) expTableI(sb *strings.Builder) {
	sb.WriteString("## Table I — remote API message breakdown\n\n")
	sb.WriteString(`Derived from the protocol encoders; all fixed sizes match the paper
(Initialization x+4/12, cudaMalloc 8/8, cudaMemcpy x+20/4 and 20/x+4,
cudaLaunch x+44/4, cudaFree 8/4; asserted byte-for-byte in
internal/protocol tests). One engineering deviation: our launch message's
variable region carries the packed kernel parameters after the
NUL-terminated kernel name (the "Parameters offset" field locates them),
so the MM launch is 68 bytes instead of the paper's 52. Both sizes sit on
the flat region of the small-message latency curve, so transfer-time
estimates are unaffected.

`)
}

func (c Config) expFigures34(sb *strings.Builder) error {
	sb.WriteString("## Figures 3 and 4 — network characterization\n\n")
	sb.WriteString("| network | quantity | paper | reproduced |\n|---|---|---|---|\n")
	for _, link := range netsim.Testbed() {
		_, _, fit, err := c.latency(link, 21, nil)
		if err != nil {
			return err
		}
		reg, _ := link.Regression()
		fmt.Fprintf(sb, "| %s | large-payload fit (ms/MB) | %.1f·n %+.1f | %.2f·n %+.2f |\n",
			link.Name(), reg.Slope, reg.Intercept, fit.Slope, fit.Intercept)
		fmt.Fprintf(sb, "| %s | effective bandwidth (MB/s) | %.1f | %.1f |\n",
			link.Name(), link.Bandwidth(), netsim.EffectiveBandwidth(fit))
		fmt.Fprintf(sb, "| %s | correlation r | 1.0 | %.4f |\n", link.Name(), fit.R)
	}
	tcp := netsim.GigaETCPModel()
	moduleOneWay, err := tcp.OneWay(21490)
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, `
Small-message latencies interpolate the paper's own anchor points
(22.2–338.7 µs GigaE, 20.0–80.9 µs 40GI), exact at every anchor. The
reproduced GigaE intercept absorbs the modeled TCP-window excess (~16–23 ms
on 1–64 MB payloads), which the paper's minimum-of-100 fit filtered out;
the slope — and hence the bandwidth every estimate uses — matches.

A mechanistic TCP slow-start model (netsim.TCPMicroModel: 22.2 µs base
latency, 1460-byte MSS, initial window 1, doubling per flight)
independently *predicts* the paper's 21,490-byte module-transfer anchor at
%.1f µs against the measured 338.7 µs — 15 segments in 4 flights, 3 RTT
stalls — explaining the "non-linear time response" the paper attributes to
the TCP window.

`, moduleOneWay.Seconds()*1e6)
	return nil
}

func (c Config) expTableII(sb *strings.Builder) {
	sb.WriteString("## Table II — per-call transfer estimates\n\n")
	type check struct {
		what        string
		paper, ours float64 // µs
	}
	ge, ib := netsim.GigaE(), netsim.IB40G()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	mm := perfmodel.TableII(calib.MM, 4096, ge)
	mmIB := perfmodel.TableII(calib.MM, 4096, ib)
	fft := perfmodel.TableII(calib.FFT, 2048, ge)
	checks := []check{
		{"MM init send, GigaE", 338.7, us(mm[0].SendTime)},
		{"MM init recv, GigaE", 44.4, us(mm[0].RecvTime)},
		{"MM cudaMalloc send, GigaE", 22.2, us(mm[1].SendTime)},
		{"MM init send, 40GI", 80.9, us(mmIB[0].SendTime)},
		{"MM cudaMalloc send, 40GI", 27.9, us(mmIB[1].SendTime)},
		{"FFT init send, GigaE", 233.9, us(fft[0].SendTime)},
		{"MM memcpy(to device) @4096, GigaE (ms)", 569.4 * 1e3, us(mm[2].SendTime)},
	}
	sb.WriteString("| call | paper (µs) | reproduced (µs) |\n|---|---|---|\n")
	for _, ch := range checks {
		fmt.Fprintf(sb, "| %s | %.1f | %.1f |\n", ch.what, ch.paper, ch.ours)
	}
	sb.WriteString("\n")
}

func (c Config) expTablesIIIandV(sb *strings.Builder) {
	sb.WriteString("## Tables III and V — per-copy transfer times\n\n")
	var maxRel float64
	var cells int
	paperIII := map[string]map[int][2]float64{ // net -> size -> {MM ms, unused}
		"GigaE": {4096: {569.4}, 6144: {1281.1}, 8192: {2277.6}, 10240: {3558.7},
			12288: {5124.6}, 14336: {6975.1}, 16384: {9110.3}, 18432: {11530.2}},
		"40GI": {4096: {46.8}, 6144: {105.3}, 8192: {187.3}, 10240: {292.6},
			12288: {421.3}, 14336: {573.5}, 16384: {749.0}, 18432: {948.0}},
		"10GE": {4096: {72.7}, 18432: {1472.7}},
		"10GI": {4096: {66.0}, 18432: {1336.1}},
		"Myr":  {4096: {85.3}, 18432: {1728.0}},
		"F-HT": {4096: {44.4}, 18432: {898.8}},
		"A-HT": {4096: {22.2}, 18432: {449.4}},
	}
	for netName, sizes := range paperIII {
		link, err := netsim.ByName(netName)
		if err != nil {
			continue
		}
		for size, want := range sizes {
			got := perfmodel.TransferTime(link, calib.MM, size).Seconds() * 1e3
			rel := math.Abs(got-want[0]) / want[0]
			if rel > maxRel {
				maxRel = rel
			}
			cells++
		}
	}
	fmt.Fprintf(sb, "Bandwidth-only arithmetic; across %d spot-checked MM cells the maximum\nrelative deviation from the printed values is %.2f%% (rounding in the paper).\n\n",
		cells, maxRel*100)
}

func (c Config) expTableIV(sb *strings.Builder, data map[calib.CaseStudy]TableVIResult) {
	sb.WriteString("## Table IV — cross-validation of the estimation models\n\n")
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		fwd, rev := data[cs].CrossGigaE, data[cs].Cross40GI
		fmt.Fprintf(sb, "### %s (times in %s)\n\n", cs, unitName(cs))
		sb.WriteString("| size | err% GigaE model (paper) | err% GigaE model (ours) | err% 40GI model (paper) | err% 40GI model (ours) |\n|---|---|---|---|---|\n")
		for i, row := range fwd {
			pf, _ := calib.PaperCrossError(cs, "GigaE", row.Size)
			pr, _ := calib.PaperCrossError(cs, "40GI", row.Size)
			fmt.Fprintf(sb, "| %d | %.2f | %.2f | %.2f | %.2f |\n",
				row.Size, pf, row.RelativeErrorPc, pr, rev[i].RelativeErrorPc)
		}
		sb.WriteString("\n")
	}
	sb.WriteString(`Shape reproduced: MM errors stay within a few percent (paper: |err| ≤ 2.2%),
while FFT errors are large at small batches and shrink with transfer size
(paper: 33.95% → 5.77% on the GigaE model, −16.0% → −2.25% on the 40GI
model) — the signature of the GigaE TCP-window excess on 16–128 MB
transfers that the linear model folds into its fixed time.

`)
}

func (c Config) expTableVI(sb *strings.Builder, data map[calib.CaseStudy]TableVIResult) {
	sb.WriteString("## Table VI — projections onto the HPC networks\n\n")
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		d := data[cs]
		var worst, sum float64
		var n int
		for _, netName := range calib.TargetNetworks() {
			for _, size := range calib.Sizes(cs) {
				for _, m := range []struct {
					model string
					got   time.Duration
				}{
					{"GigaE", d.EstGigaEModel[netName][size]},
					{"40GI", d.Est40GIModel[netName][size]},
				} {
					want, ok := calib.PaperTargetEstimate(cs, m.model, netName, size)
					if !ok {
						continue
					}
					rel := math.Abs(m.got.Seconds()-want.Seconds()) / want.Seconds()
					sum += rel
					n++
					if rel > worst {
						worst = rel
					}
				}
			}
		}
		fmt.Fprintf(sb, "- **%s**: %d estimated cells (5 networks × %d sizes × 2 models); mean |Δ| vs. paper %.2f%%, worst %.2f%%.\n",
			cs, n, len(calib.Sizes(cs)), sum/float64(n)*100, worst*100)
	}
	sb.WriteString("\n")
}

func (c Config) expFigures56(sb *strings.Builder, data map[calib.CaseStudy]TableVIResult) {
	sb.WriteString("## Figures 5 and 6 — qualitative shape\n\n")
	mm, fft := data[calib.MM], data[calib.FFT]
	checks := []struct {
		name string
		ok   bool
	}{
		{"MM: local GPU beats CPU for m ≥ 6144", mm.GPU[6144] < mm.CPU[6144] && mm.GPU[18432] < mm.CPU[18432]},
		{"MM: every HPC-network estimate beats CPU at m = 18432",
			allBeat(mm.EstGigaEModel, mm.CPU, 18432) && allBeat(mm.Est40GIModel, mm.CPU, 18432)},
		{"MM: GigaE remoting roughly doubles the 40GI time at m = 4096",
			ratioIn(mm.MeasuredGigaE[4096], mm.Measured40GI[4096], 1.5, 2.3)},
		{"MM: remote 40GI beats the local GPU at m = 4096 (pre-initialized context)",
			mm.Measured40GI[4096] < mm.GPU[4096]},
		{"FFT: CPU beats the local GPU at every batch", fft.CPU[2048] < fft.GPU[2048] && fft.CPU[16384] < fft.GPU[16384]},
		{"FFT: CPU beats every remote estimate", allLose(fft.Est40GIModel, fft.CPU, 2048) && allLose(fft.EstGigaEModel, fft.CPU, 16384)},
		{"FFT: GigaE remoting is the slowest configuration",
			fft.MeasuredGigaE[8192] > fft.Measured40GI[8192] && fft.MeasuredGigaE[8192] > fft.EstGigaEModel["Myr"][8192]},
	}
	sb.WriteString("| claim | holds |\n|---|---|\n")
	for _, ch := range checks {
		fmt.Fprintf(sb, "| %s | %v |\n", ch.name, ch.ok)
	}
	fmt.Fprintf(sb, "\nFull series: `go run ./cmd/rcuda-repro -figure 5` and `-figure 6`.\n")
}

func allBeat(est map[string]map[int]time.Duration, base map[int]time.Duration, size int) bool {
	for _, series := range est {
		if series[size] >= base[size] {
			return false
		}
	}
	return true
}

func allLose(est map[string]map[int]time.Duration, base map[int]time.Duration, size int) bool {
	for _, series := range est {
		if series[size] <= base[size] {
			return false
		}
	}
	return true
}

func ratioIn(a, b time.Duration, lo, hi float64) bool {
	if b == 0 {
		return false
	}
	r := a.Seconds() / b.Seconds()
	return r >= lo && r <= hi
}
