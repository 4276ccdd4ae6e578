package loadgen

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"rcuda/internal/broker"
	"rcuda/internal/faults"
	"rcuda/internal/protocol"
	"rcuda/internal/raceflag"
)

func TestRunRejectsBadClasses(t *testing.T) {
	if _, err := Run(Config{Classes: []Class{{Name: "x", Weight: 0, HoldMean: time.Millisecond}}}); err == nil {
		t.Fatal("accepted a zero-weight class")
	}
	if _, err := Run(Config{Classes: []Class{{Name: "x", Weight: 1}}}); err == nil {
		t.Fatal("accepted a zero-hold class")
	}
	if _, err := Run(Config{Classes: []Class{{Name: "x", Weight: 1, HoldMean: time.Millisecond, SchedClass: 9}}}); err == nil {
		t.Fatal("accepted an out-of-range scheduling class")
	}
}

// schedMix is a three-way scheduling-class mix: sporadic realtime
// inference, the batch bulk of the load, and best-effort scavengers.
func schedMix() []Class {
	return []Class{
		{Name: "rt", Weight: 1, HoldMean: 5 * time.Millisecond, Durable: true, SchedClass: protocol.SchedClassRealtime},
		{Name: "batch", Weight: 2, HoldMean: 40 * time.Millisecond, Durable: true, SchedClass: protocol.SchedClassBatch},
		{Name: "scavenge", Weight: 1, HoldMean: 20 * time.Millisecond, Durable: false, SchedClass: protocol.SchedClassBestEffort},
	}
}

// TestMixedClassPopulation drives a scheduling-class mix through the
// class-aware policy: the probe loop must feed per-class gauges to the
// placer, every class must see placements, and the run must be
// deterministic down to its JSON encoding.
func TestMixedClassPopulation(t *testing.T) {
	cfg := Config{
		Seed:           13,
		Sessions:       20_000,
		Arrival:        BurstyOnOff,
		Rate:           10_000,
		Classes:        schedMix(),
		Policy:         broker.ClassAware,
		InitialDaemons: 4,
		DaemonCapacity: 64,
		Autoscale:      &broker.AutoscalerConfig{Min: 4, Max: 32, DaemonCapacity: 64, Cooldown: 200 * time.Millisecond},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Policy != broker.ClassAware.String() {
		t.Fatalf("result policy %q", a.Policy)
	}
	if a.Completed != int64(a.Sessions) || a.LostDurable != 0 {
		t.Fatalf("completed %d of %d, lost durable %d", a.Completed, a.Sessions, a.LostDurable)
	}
	if a.Pool.Probes == 0 {
		t.Fatal("no probes — class gauges never reached the placer")
	}
	for i, cr := range a.Classes {
		if cr.SchedClass != cfg.Classes[i].SchedClass {
			t.Fatalf("class %q echoes sched class %d, want %d", cr.Name, cr.SchedClass, cfg.Classes[i].SchedClass)
		}
		if cr.Placements == 0 {
			t.Fatalf("class %q saw no placements: %+v", cr.Name, a.Classes)
		}
		if cr.WaitP99 < cr.WaitP50 {
			t.Fatalf("class %q wait percentiles out of order: %+v", cr.Name, cr)
		}
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("two identically-seeded class-aware runs diverged")
	}
}

// TestMixedClassHundredThousand is the 1e5-scale fairness scenario from
// the issue: a mixed-class population through class-aware placement on an
// elastic fleet, with per-class waits surfaced in the result.
func TestMixedClassHundredThousand(t *testing.T) {
	if testing.Short() {
		t.Skip("1e5-session run skipped in -short mode")
	}
	r, err := Run(Config{
		Seed:           21,
		Sessions:       100_000,
		Rate:           40_000,
		Classes:        schedMix(),
		Policy:         broker.ClassAware,
		InitialDaemons: 4,
		DaemonCapacity: 64,
		Autoscale:      &broker.AutoscalerConfig{Min: 4, Max: 64, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed+r.LostNonDurable != 100_000 || r.LostDurable != 0 || r.Unplaced != 0 {
		t.Fatalf("accounting: completed %d lost %d unplaced %d", r.Completed, r.LostNonDurable, r.Unplaced)
	}
	if len(r.Classes) != 3 {
		t.Fatalf("want 3 class rows, got %+v", r.Classes)
	}
	for _, cr := range r.Classes {
		if cr.Placements == 0 {
			t.Fatalf("class %q saw no placements: %+v", cr.Name, r.Classes)
		}
		t.Logf("class %q: %d placements, p50 %v p99 %v", cr.Name, cr.Placements, cr.WaitP50, cr.WaitP99)
	}
	if r.PeakDaemons <= 4 {
		t.Fatalf("fleet never grew under 40k/s: peak %d", r.PeakDaemons)
	}
}

func TestRunCompletesOfferedLoad(t *testing.T) {
	r, err := Run(Config{Seed: 7, Sessions: 5_000, Rate: 5_000, InitialDaemons: 8, DaemonCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r.Placed < int64(r.Sessions) || r.Completed != int64(r.Sessions) {
		t.Fatalf("placed %d / completed %d of %d sessions", r.Placed, r.Completed, r.Sessions)
	}
	if r.LostDurable != 0 || r.LostNonDurable != 0 || r.Unplaced != 0 {
		t.Fatalf("clean run lost sessions: %+v", r)
	}
	if r.PlacedPerSec <= 0 || r.Elapsed <= 0 {
		t.Fatalf("degenerate throughput: %+v", r)
	}
	if r.QueueWaitP99 < r.QueueWaitP50 || r.QueueWaitMax < r.QueueWaitP99 {
		t.Fatalf("wait percentiles out of order: p50=%v p99=%v max=%v",
			r.QueueWaitP50, r.QueueWaitP99, r.QueueWaitMax)
	}
	if len(r.Trajectory) == 0 {
		t.Fatal("no trajectory samples")
	}
	if r.Pool.Probes == 0 {
		t.Fatal("no probes recorded — gauges never refreshed")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{
		Seed:     42,
		Sessions: 20_000,
		Arrival:  BurstyOnOff,
		Rate:     10_000,
		Classes: []Class{
			{Name: "train", Weight: 1, HoldMean: 40 * time.Millisecond, Durable: true},
			{Name: "infer", Weight: 3, HoldMean: 5 * time.Millisecond, Durable: false},
		},
		InitialDaemons: 2,
		DaemonCapacity: 32,
		Autoscale:      &broker.AutoscalerConfig{Min: 2, Max: 32, DaemonCapacity: 32, Cooldown: 200 * time.Millisecond},
		FaultPlan:      faults.Seeded(99, faults.Config{ResetRate: 0.002, StallRate: 0.01, LatencyRate: 0.05}),
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The fault plan is stateful; rebuild it for the second run.
	cfg.FaultPlan = faults.Seeded(99, faults.Config{ResetRate: 0.002, StallRate: 0.01, LatencyRate: 0.05})
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identically-seeded runs diverged:\n%+v\n%+v", a, b)
	}
	// Byte-level reproducibility is what CI's freshness check relies on.
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("JSON encodings differ between identically-seeded runs")
	}
}

func TestRunSeedChangesOutcome(t *testing.T) {
	base := Config{Sessions: 2_000, Rate: 4_000, InitialDaemons: 2, DaemonCapacity: 16}
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Seed = 1
	b, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed == b.Elapsed && a.QueueWaitMax == b.QueueWaitMax {
		t.Fatal("different seeds produced an identical timeline")
	}
}

func TestHundredThousandSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("1e5-session run skipped in -short mode")
	}
	r, err := Run(Config{
		Seed:           1,
		Sessions:       100_000,
		Rate:           20_000,
		InitialDaemons: 4,
		DaemonCapacity: 64,
		Autoscale:      &broker.AutoscalerConfig{Min: 4, Max: 64, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 100_000 || r.LostDurable != 0 {
		t.Fatalf("completed %d, lost durable %d", r.Completed, r.LostDurable)
	}
	if r.Autoscaler.ScaleUps == 0 {
		t.Fatalf("fleet never grew under 20k/s offered load: %+v", r.Autoscaler)
	}
	if r.PeakDaemons <= 4 {
		t.Fatalf("peak fleet %d never exceeded the initial 4", r.PeakDaemons)
	}
}

func TestAutoscaleGrowsAndShrinks(t *testing.T) {
	r, err := Run(Config{
		Seed:           3,
		Sessions:       30_000,
		Rate:           10_000,
		Classes:        []Class{{Name: "d", Weight: 1, HoldMean: 80 * time.Millisecond, Durable: true}},
		InitialDaemons: 2,
		DaemonCapacity: 32,
		Autoscale: &broker.AutoscalerConfig{
			Min: 2, Max: 48, DaemonCapacity: 32, Cooldown: 150 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != int64(r.Sessions) {
		t.Fatalf("completed %d of %d", r.Completed, r.Sessions)
	}
	// ~10k/s × 80ms ≈ 800 concurrent sessions needs ~25+ daemons of 32.
	if r.PeakDaemons < 10 {
		t.Fatalf("peak fleet %d implausibly small for the offered load", r.PeakDaemons)
	}
	// As the tail drains the controller hands daemons back.
	if r.Autoscaler.ScaleDowns == 0 || r.Pool.Retirements == 0 {
		t.Fatalf("fleet never shrank: %+v %+v", r.Autoscaler, r.Pool)
	}
	if r.DaemonsFinal >= r.PeakDaemons {
		t.Fatalf("final fleet %d did not settle below peak %d", r.DaemonsFinal, r.PeakDaemons)
	}
}

// TestChaosScaleDownStrandsNothing is the acceptance chaos test: daemons
// are killed by an injected fault plan while the autoscaler is actively
// growing and shrinking the fleet, and not one durable session may be
// lost — kills fail them over, and scale-down drains retiring daemons by
// migrating their residents (or vetoes when it cannot).
func TestChaosScaleDownStrandsNothing(t *testing.T) {
	r, err := Run(Config{
		Seed:     11,
		Sessions: 20_000,
		Arrival:  BurstyOnOff,
		Rate:     8_000,
		Classes: []Class{
			{Name: "durable", Weight: 3, HoldMean: 60 * time.Millisecond, Durable: true},
			{Name: "besteffort", Weight: 1, HoldMean: 20 * time.Millisecond, Durable: false},
		},
		InitialDaemons: 4,
		DaemonCapacity: 32,
		Autoscale: &broker.AutoscalerConfig{
			Min: 2, Max: 48, DaemonCapacity: 32, Cooldown: 150 * time.Millisecond,
		},
		FaultPlan: faults.Seeded(5, faults.Config{ResetRate: 0.01, StallRate: 0.02}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Faults == 0 || r.Pool.Failovers == 0 {
		t.Fatalf("chaos never bit: faults=%d failovers=%d", r.Faults, r.Pool.Failovers)
	}
	if r.LostDurable != 0 {
		t.Fatalf("%d durable sessions lost", r.LostDurable)
	}
	// Every durable session completed despite kills; only non-durable ones
	// may have died with their daemons.
	var durableOffered int64
	for _, c := range r.Classes {
		if c.Durable {
			durableOffered += int64(c.Sessions)
		}
	}
	if got := r.Completed + r.LostNonDurable + int64(r.Unplaced); got != int64(r.Sessions) {
		t.Fatalf("session accounting leaks: completed %d + lost %d + unplaced %d != %d",
			r.Completed, r.LostNonDurable, r.Unplaced, r.Sessions)
	}
	if r.Completed < durableOffered {
		t.Fatalf("completed %d < durable offered %d", r.Completed, durableOffered)
	}
	if r.Pool.Markdowns == 0 || r.Pool.Markups == 0 {
		t.Fatalf("stalls never flapped health: %+v", r.Pool)
	}
}

// TestScaleDownMigratesInsteadOfVetoing drives a long-hold all-durable
// load whose burst grows the fleet and whose tail drains it: scale-down
// then faces daemons that still hold live durable sessions, and must
// retire them by migrating the residents — no stranding, no lost
// sessions, and every migrated session still completes its hold.
func TestScaleDownMigratesInsteadOfVetoing(t *testing.T) {
	r, err := Run(Config{
		Seed:           17,
		Sessions:       20_000,
		Arrival:        BurstyOnOff,
		Rate:           6_000,
		Classes:        []Class{{Name: "train", Weight: 1, HoldMean: 120 * time.Millisecond, Durable: true}},
		BurstOnMean:    400 * time.Millisecond,
		BurstOffMean:   400 * time.Millisecond,
		BurstFactor:    6,
		InitialDaemons: 2,
		DaemonCapacity: 32,
		Autoscale: &broker.AutoscalerConfig{
			Min: 2, Max: 48, DaemonCapacity: 32, Cooldown: 100 * time.Millisecond,
			DownThreshold: 0.6,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != int64(r.Sessions) || r.LostDurable != 0 || r.Unplaced != 0 {
		t.Fatalf("drain stranded work: completed %d of %d, lost %d, unplaced %d",
			r.Completed, r.Sessions, r.LostDurable, r.Unplaced)
	}
	if r.Pool.Retirements == 0 {
		t.Fatalf("fleet never shrank: %+v", r.Pool)
	}
	if r.Pool.Migrations == 0 {
		t.Fatalf("scale-down retired %d daemons without migrating a single resident: %+v",
			r.Pool.Retirements, r.Pool)
	}
	if r.Pool.MigrationFailures != 0 {
		t.Fatalf("simulated migrations cannot fail: %+v", r.Pool)
	}
	// Migration moves a running session without re-queuing it: failovers
	// count only chaos kills, of which this scenario has none.
	if r.Pool.Failovers != 0 {
		t.Fatalf("migrations were counted as failovers: %+v", r.Pool)
	}
}

func TestMaxDurationBoundsOverload(t *testing.T) {
	// One daemon, no autoscaler, offered load far beyond capacity: the
	// virtual clock must stop at MaxDuration with the backlog reported.
	r, err := Run(Config{
		Seed:           2,
		Sessions:       5_000,
		Rate:           50_000,
		Classes:        []Class{{Name: "slow", Weight: 1, HoldMean: time.Second, Durable: true}},
		InitialDaemons: 1,
		DaemonCapacity: 8,
		MaxDuration:    2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Elapsed > 2*time.Second {
		t.Fatalf("clock ran past MaxDuration: %v", r.Elapsed)
	}
	if r.Unplaced == 0 {
		t.Fatal("overloaded run reported no backlog")
	}
	if r.Pool.Spills == 0 {
		t.Fatal("saturated daemon never spilled")
	}
}

// TestBlockedHeadDoesNotRetry pins the blocked-head rule on the smallest
// saturated fleet: one single-slot daemon, arrivals a hundred times faster
// than service. Each session is refused at most once — when it first
// reaches the head of the queue behind a busy daemon — and is then placed
// by the completion that frees the slot; arrivals and probe ticks in
// between do not walk the fleet again. Without the rule every arrival
// behind a blocked head costs one more refusal: ~N²/2 spills.
func TestBlockedHeadDoesNotRetry(t *testing.T) {
	const n = 400
	res, err := Run(Config{
		Seed: 3, Sessions: n, Rate: 10_000,
		Classes:        []Class{{Name: "x", Weight: 1, HoldMean: 10 * time.Millisecond, Durable: true}},
		InitialDaemons: 1, DaemonCapacity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n || res.Unplaced != 0 {
		t.Fatalf("completed %d of %d, %d unplaced", res.Completed, n, res.Unplaced)
	}
	if res.Pool.Spills == 0 || res.Pool.Spills > n {
		t.Fatalf("spills = %d, want in (0, %d]: at most one refusal per session", res.Pool.Spills, n)
	}
}

// TestRoundRobinBlockedHeadCursor pins the corner the blocked-head rule
// leaves open (DESIGN.md §17): under round-robin a failed walk hands out the
// marked-down daemons too and moves the cursor past them, so how many failed
// walks happen decides where the cursor stands when room opens. Four
// single-slot daemons, 1 and 3 killed, 0 and 2 busy; the third session
// fails its walk and blocks the queue. A probe then clears the full marks,
// and the session on daemon 0 completes. Today one failed walk leaves the
// cursor before daemon 2, so the next walk spills on 2 before it lands on
// 0; a second failed walk — what the queue did before it blocked — would
// have left the cursor past 3 and landed on 0 with no spill. The cursor
// decides the spill count and nothing else: while the head is blocked, room
// opens on one daemon at a time (a completion) or first on the lowest new
// index (a spawn, which the cursor, never past the old fleet, reaches
// first), so where a session lands does not depend on it.
func TestRoundRobinBlockedHeadCursor(t *testing.T) {
	run := func(extraWalk bool) (landed int, unblockSpills int64) {
		s, err := newSim(Config{
			Seed: 1, Sessions: 10, Policy: broker.RoundRobin,
			Classes:        []Class{{Name: "x", Weight: 1, HoldMean: time.Second, Durable: true}},
			InitialDaemons: 4, DaemonCapacity: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.kill(s.daemons[1])
		s.kill(s.daemons[3])
		for i := 0; i < 3; i++ {
			s.arrive()
		}
		if s.sessions[0].daemon != 0 || s.sessions[1].daemon != 2 || !s.blocked {
			t.Fatalf("set-up: sessions on %d and %d, blocked %v", s.sessions[0].daemon, s.sessions[1].daemon, s.blocked)
		}
		if extraWalk && s.place(2) {
			t.Fatal("a second walk over the full fleet placed the session")
		}
		s.probeTick()
		before := s.pl.Stats().Spills
		s.complete(int64(s.sessions[0].epoch)) // session 0
		return s.sessions[2].daemon, s.pl.Stats().Spills - before
	}
	if landed, spills := run(false); landed != 0 || spills != 1 {
		t.Errorf("one failed walk: landed on %d after %d spills, want 0 after 1", landed, spills)
	}
	if landed, spills := run(true); landed != 0 || spills != 0 {
		t.Errorf("two failed walks: landed on %d after %d spills, want 0 after 0", landed, spills)
	}
}

// TestRunAllocations gates the per-session allocation budget on the two
// benchmark shapes: the session table and queue are sized once, sessions
// live by value, residents sit in slices, the placement orders are kept
// per class, completions are closure-free events and the event heap is
// typed — what is left is amortized slice growth and per-probe replies.
func TestRunAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, name := range []string{"scale-down-migrate", "scale-100k-classes"} {
		cfg := ScenarioConfig(name)
		perRun := testing.AllocsPerRun(2, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if perSession := perRun / float64(cfg.Sessions); perSession > 0.2 {
			t.Errorf("%s: %.3f allocations per session (%.0f per run), want <= 0.2", name, perSession, perRun)
		} else {
			t.Logf("%s: %.3f allocations per session", name, perSession)
		}
	}
}

// BenchmarkRunScaleDown and BenchmarkRunClasses time the two fleet shapes
// bench/'s fleet_place runs, at their BENCH_loadscale.json seeds.
func BenchmarkRunScaleDown(b *testing.B) { benchmarkScenario(b, "scale-down-migrate") }

func BenchmarkRunClasses(b *testing.B) { benchmarkScenario(b, "scale-100k-classes") }

func benchmarkScenario(b *testing.B, name string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ScenarioConfig(name)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQueueWaitIsClassAndPolicyBlind explains a number that looks like a
// bug: the class-aware scenarios report the same p50/p99 placement wait for
// every class. The fleet queue is one FIFO and a session is placed the
// instant any daemon has room, so the class — and the policy — only decide
// *which* daemon, never *when*. Re-running a class mix under least-loaded
// must therefore reproduce every wait statistic to the nanosecond, and the
// per-class histograms must be distinct objects (means differ by sampling)
// whose log-bucketed percentiles coincide.
func TestQueueWaitIsClassAndPolicyBlind(t *testing.T) {
	run := func(policy broker.Policy) *Result {
		res, err := Run(Config{
			Seed: 6, Sessions: 20_000, Rate: 40_000,
			Classes: schedMix(), Policy: policy,
			InitialDaemons: 4, DaemonCapacity: 64,
			Autoscale: &broker.AutoscalerConfig{Min: 4, Max: 64, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	aware, blind := run(broker.ClassAware), run(broker.LeastLoaded)
	if aware.QueueWaitP99 == 0 {
		t.Fatal("scenario never queued; it cannot tell the classes apart")
	}
	means := map[time.Duration]bool{}
	for i, c := range aware.Classes {
		if c.WaitP50 != aware.QueueWaitP50 || c.WaitP99 != aware.QueueWaitP99 {
			t.Errorf("class %s waits p50 %v p99 %v, fleet p50 %v p99 %v", c.Name, c.WaitP50, c.WaitP99, aware.QueueWaitP50, aware.QueueWaitP99)
		}
		if b := blind.Classes[i]; c.WaitP50 != b.WaitP50 || c.WaitP99 != b.WaitP99 || c.WaitMax != b.WaitMax || c.WaitMean != b.WaitMean {
			t.Errorf("class %s waits differ between policies: %+v vs %+v", c.Name, c, b)
		}
		means[c.WaitMean] = true
	}
	if len(means) != len(aware.Classes) {
		t.Errorf("per-class mean waits coincide exactly (%v): the classes share a histogram", means)
	}
}
