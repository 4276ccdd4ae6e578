package report

import (
	"embed"
	"fmt"
	"math"
	"strings"
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
	"rcuda/internal/sched"
	"rcuda/internal/vclock"
	"rcuda/internal/workload"
)

// Experiments generates the EXPERIMENTS.md document: for every table and
// figure of the paper, the reproduction's numbers next to the published
// ones, with relative deltas. The document is fully regenerated from the
// simulation campaign, so it reflects whatever the code currently does.
func (c Config) Experiments() (string, error) {
	var sb strings.Builder
	sb.WriteString(`# EXPERIMENTS — paper vs. reproduction

Regenerate with ` + "`go run ./cmd/rcuda-repro -experiments`" + fmt.Sprintf(
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
	data, err := c.TableVIData()
	if err != nil {
		return "", err
	}
	c.expTableIV(&sb, data)
	c.expTableVI(&sb, data)
	c.expFigures56(&sb, data)
	if err := c.expExtensions(&sb); err != nil {
		return "", err
	}
	if err := expRecorded(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// The recorded part of the document: wall-clock numbers belong to the
// machine they were measured on, so they are kept verbatim, that machine's
// fingerprint beside them, as the markdown fragments of recorded/ — one per
// PR that measured — and included as they are. Everything above them runs on
// the virtual clock and is recomputed on every run.
//
//go:embed recorded/*.md
var recordedFS embed.FS

// recordedSections names the fragments in document order.
var recordedSections = []string{"intro", "pr13", "pr14", "pr15", "pr16", "pr18", "pr21", "pr22", "pr26", "pr27", "pr29", "pr33", "pr34", "pr35", "ledger"}

func expRecorded(sb *strings.Builder) error {
	for i, name := range recordedSections {
		text, err := recordedFS.ReadFile("recorded/" + name + ".md")
		if err != nil {
			return err
		}
		if i > 0 {
			sb.WriteByte('\n') // a blank line between fragments
		}
		sb.Write(text)
	}
	return nil
}

func (c Config) expExtensions(sb *strings.Builder) error {
	sb.WriteString("## Extensions beyond the paper\n\n")
	// Pipelined FFT (Figure 7's run, noiseless, at one representative
	// batch): the overlap gain on 40GI and GigaE, the first two networks.
	runs, err := Config{}.pipelineRuns(8, []int{8192})
	if err != nil {
		return err
	}
	fast, slow := runs[0].gainPc(1), runs[0].gainPc(0)
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

	// Chunked memcpy pipeline (BenchmarkMemcpyPipeline): run one large copy
	// through the real middleware over the simulated links, with and without
	// the chunked protocol, and report the modeled times; the last copy is
	// the 40GI chunked one again with the retry/reconnect layer enabled.
	var copies [5]time.Duration
	for i, c := range []simCopy{
		{netsim.IB40G(), false, false}, {netsim.IB40G(), true, false},
		{netsim.GigaE(), false, false}, {netsim.GigaE(), true, false},
		{netsim.IB40G(), true, true},
	} {
		if copies[i], err = simCopyTime(c); err != nil {
			return err
		}
	}
	fastLegacy, fastChunked, slowLegacy, slowChunked := copies[0], copies[1], copies[2], copies[3]
	fmt.Fprintf(sb, `- **Chunked memcpy pipeline (BenchmarkMemcpyPipeline)**: a cudaMemcpy above
  a threshold can stream as ~1 MiB chunks so the server overlaps receiving
  chunk k+1 with pushing chunk k across PCIe. A 64 MiB host-to-device copy
  on 40GI drops from %.1f to %.1f sim-ms (%.0f%% faster, approaching
  max(wire, PCIe) instead of their sum); on GigaE the same copy *rises*
  from %.0f to %.0f sim-ms because every chunk pays the TCP-window excess
  one large frame amortizes — so chunking is opt-in
  (rcuda.WithChunkedTransfers) and the default wire format is unchanged.
  On a real socket the pooled zero-copy framing that carries the chunks
  also cuts the legacy path's allocations per round trip by ~74%%.

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
	basePer, retryPer := fastChunked, copies[4]
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
  sits below benchmark noise on a loopback socket (tcp/chunked vs
  tcp/chunked+retry in BenchmarkMemcpyPipeline; <1%% target).

`, simMS(basePer), simMS(retryPer),
		(retryPer.Seconds()/basePer.Seconds()-1)*100)

	// Live pool broker: place a mixed MM/FFT batch on three in-process
	// daemons through the real wire protocol and compare the resulting
	// makespan with the cluster simulator's list-scheduling prediction.
	live, err := brokerLiveResult()
	if err != nil {
		return err
	}
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

	// API-call batching + query caching: run the latency-bound DNN
	// inference loop batched and unbatched over both testbed links. The
	// sim clock makes the numbers deterministic, and bit-exactness across
	// modes is re-verified on every regeneration.
	inf, err := batchedInferenceResults()
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, `- **API-call batching + query caching (rcuda.WithBatching, `+"`make bench-batch`"+`)**:
  fire-and-forget calls (async copies, kernel launches, event records,
  memsets) coalesce into one wire frame that the next synchronizing call
  flushes — or closes, riding it, when it is a synchronization or
  completion query — immutable device-query replies are cached for the
  lifetime of the connection, and the client answers a poll of the event
  it has just synchronized itself. A %d-layer dense inference loop serving
  %d requests — %d round trips per request unbatched — runs %.2fx faster
  on GigaE (%.1f → %.1f sim-ms) and %.2fx on 40GI (%.1f → %.1f sim-ms),
  with bit-identical outputs in all four cells (digest %016x) and the
  analytic schedule in internal/perfmodel pinning the wire exactly
  (TestInferenceModelCrossValidation: 0.00%% error both directions). The
  frame byte cap defaults to %d KiB because a frame past GigaE's
  small-message regime (~21 KB) pays the same TCP-window excess that
  bites chunking and pipelining above — batching must stay small to win.

`, inf.layers, inf.requests, inf.unbatchedPerReq,
		inf.geUnbatched.Seconds()/inf.geBatched.Seconds(),
		simMS(inf.geUnbatched), simMS(inf.geBatched),
		inf.ibUnbatched.Seconds()/inf.ibBatched.Seconds(),
		simMS(inf.ibUnbatched), simMS(inf.ibBatched),
		inf.digest, rcuda.DefaultBatchBytes>>10)

	// Scale harness + elastic autoscaling: a virtual-clock run through the
	// broker's real Placer with chaos kills, deterministic from its seed.
	scale, err := loadgen.Run(loadgen.Config{
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
	})
	if err != nil {
		return err
	}
	if scale.LostDurable != 0 {
		return fmt.Errorf("report: scale run lost %d durable sessions", scale.LostDurable)
	}
	scaleDown, classes, err := placementAccountingRuns()
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, `- **Million-session scale harness + elastic autoscaling (internal/loadgen,
  `+"`make bench-scale`"+`)**: a goroutine-free event loop (des.EventLoop) drives
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
  A million-session run completes in ~2 s of wall time and is
  byte-reproducible from its seed (BENCH_loadscale.json).
  BENCH_loadscale.json's `+"`scale-down-migrate`"+` row reported 908143 spills for
  10000 sessions while every refused attempt, and every arrival behind a
  blocked head, re-walked the full fleet; with one ranking per placement,
  full marks and a blocked head (DESIGN.md §9) the same run reports %d
  with every other number unchanged, and that remainder is real: under
  saturation each completion frees one slot and the next session in line
  walks the still-full fleet once before blocking, the ranking runs on
  gauges up to one 50 ms probe period old, and every probe clears the
  marks.
  Its `+"`scale-100k-classes`"+` row reports the same p50/p99 placement wait for
  all three classes (%.1f / %.1f ms here) because that wait is class-blind
  by construction — the fleet queue is one FIFO and a session is placed
  the instant any daemon has room, so the class and the policy only choose
  which daemon: the same run under least-loaded reproduces every class's
  wait distribution to the nanosecond (checked on every regeneration;
  per-class means %.1f / %.1f / %.1f µs differ by sampling only).

`, scale.Sessions, scale.PlacedPerSec, float64(scale.QueueWaitP99.Microseconds())/1000,
		minDaemons(scale), scale.PeakDaemons, scale.Pool.Retirements,
		scale.Faults, scale.Pool.Failovers, scale.LostNonDurable,
		scaleDown.Pool.Spills,
		simMS(classes.QueueWaitP50), simMS(classes.QueueWaitP99),
		simUS(classes.Classes[0].WaitMean), simUS(classes.Classes[1].WaitMean), simUS(classes.Classes[2].WaitMean))

	// Per-device WFQ scheduler: the starvation scenario re-run live (the
	// same mix BENCH_sched.json commits), so the document can only print
	// numbers the run just verified.
	fifoRes, wfqRes := starvationRuns()
	fifoP99 := fifoRes.ClassP99(sched.Realtime)
	wfqP99 := wfqRes.ClassP99(sched.Realtime)
	if wfqP99 <= 0 || fifoP99 < sched.MinRealtimeP99Improvement*wfqP99 {
		return fmt.Errorf("report: starvation scenario improvement collapsed (fifo %v, wfq %v)", fifoP99, wfqP99)
	}
	fmt.Fprintf(sb, `- **Per-device WFQ scheduler with priority classes (internal/sched,
  `+"`make bench-sched`"+`)**: the daemon's per-device dispatch runs through a
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

`, float64(fifoP99.Microseconds())/1000, float64(wfqP99.Microseconds())/1000,
		float64(fifoP99)/float64(wfqP99),
		100*sched.ThroughputDelta(fifoRes, wfqRes), fifoRes.TotalServed, wfqRes.TotalServed)
	return nil
}

// placementAccountingRuns re-runs the two BENCH_loadscale.json scenarios
// whose numbers needed explaining — scale-down-migrate's spill count and
// scale-100k-classes' identical per-class waits — and verifies the
// explanation the document gives for the second: per-class percentiles
// equal the fleet's, and the same run under least-loaded has the same
// waits exactly.
func placementAccountingRuns() (scaleDown, classes *loadgen.Result, err error) {
	scaleDown, err = loadgen.Run(loadgen.ScenarioConfig("scale-down-migrate"))
	if err != nil {
		return nil, nil, err
	}
	classMix := func(policy broker.Policy) (*loadgen.Result, error) {
		cfg := loadgen.ScenarioConfig("scale-100k-classes")
		cfg.Policy = policy
		return loadgen.Run(cfg)
	}
	classes, err = classMix(broker.ClassAware)
	if err != nil {
		return nil, nil, err
	}
	blind, err := classMix(broker.LeastLoaded)
	if err != nil {
		return nil, nil, err
	}
	for i, c := range classes.Classes {
		if c.WaitP50 != classes.QueueWaitP50 || c.WaitP99 != classes.QueueWaitP99 {
			return nil, nil, fmt.Errorf("report: class %s placement wait differs from the fleet's: the queue is no longer class-blind", c.Name)
		}
		if b := blind.Classes[i]; c.WaitP99 != b.WaitP99 || c.WaitMax != b.WaitMax || c.WaitMean != b.WaitMean {
			return nil, nil, fmt.Errorf("report: class %s placement wait depends on the policy (%v vs %v)", c.Name, c.WaitMean, b.WaitMean)
		}
	}
	return scaleDown, classes, nil
}

// starvationRuns executes the headline scheduler scenario,
// starvation-1bulk-8rt, under both policies: one saturating batch pipeline
// vs eight sporadic realtime tenants on one device.
func starvationRuns() (fifo, wfq *sched.SimResult) {
	sc := sched.Scenarios()[0]
	return sched.Simulate(sc.Config(sched.FIFO)), sched.Simulate(sc.Config(sched.WFQ))
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

// inferenceSummary carries the deterministic batched-vs-unbatched numbers
// of the DNN inference workload for the extensions section.
type inferenceSummary struct {
	layers, requests, unbatchedPerReq int
	geUnbatched, geBatched            time.Duration
	ibUnbatched, ibBatched            time.Duration
	digest                            uint64
}

// batchedInferenceResults runs the inference loop in all four
// (network, mode) cells and checks the outputs digest-identical, so the
// generated document can only print numbers the run just verified.
func batchedInferenceResults() (inferenceSummary, error) {
	s := inferenceSummary{
		layers:   workload.DefaultInferenceLayers,
		requests: workload.DefaultInferenceRequests,
	}
	// Unbatched round trips per request: the messages one more request
	// adds to the session's schedule.
	spec := perfmodel.InferenceSpec{Layers: s.layers, Polls: workload.DefaultInferencePolls}
	oneRequest := spec
	oneRequest.Requests = 1
	s.unbatchedPerReq = len(perfmodel.InferenceSchedule(oneRequest)) - len(perfmodel.InferenceSchedule(spec))
	cells := []struct {
		netName string
		batched bool
		out     *time.Duration
	}{
		{"GigaE", false, &s.geUnbatched}, {"GigaE", true, &s.geBatched},
		{"40GI", false, &s.ibUnbatched}, {"40GI", true, &s.ibBatched},
	}
	for i, cell := range cells {
		link, err := netsim.ByName(cell.netName)
		if err != nil {
			return s, err
		}
		rep, err := workload.RunInference(workload.InferenceOptions{Link: link, Batched: cell.batched})
		if err != nil {
			return s, err
		}
		if !rep.Verified {
			return s, fmt.Errorf("inference %s batched=%v: not bit-exact", cell.netName, cell.batched)
		}
		if i == 0 {
			s.digest = rep.Digest
		} else if rep.Digest != s.digest {
			return s, fmt.Errorf("inference %s batched=%v: digest %016x differs from %016x",
				cell.netName, cell.batched, rep.Digest, s.digest)
		}
		*cell.out = rep.Elapsed
	}
	return s, nil
}

// brokerLiveResult runs the live-vs-predicted broker experiment on the same
// deterministic job mix the broker's acceptance test uses, so the numbers
// here are the tested ones.
func brokerLiveResult() (broker.LiveResult, error) {
	sizes := []struct {
		cs   calib.CaseStudy
		size int
	}{
		{calib.MM, 128}, {calib.FFT, 16}, {calib.MM, 64},
		{calib.FFT, 32}, {calib.MM, 128}, {calib.MM, 48},
		{calib.FFT, 16}, {calib.MM, 96}, {calib.FFT, 8},
	}
	jobs := make([]broker.SimJob, len(sizes))
	for i, s := range sizes {
		jobs[i] = broker.SimJob{ID: i, CS: s.cs, Size: s.size}
	}
	return broker.SimulateLive(netsim.IB40G(), 3, jobs)
}

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
