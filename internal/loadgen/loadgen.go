// Package loadgen is the scale harness: a deterministic, virtual-clock load
// generator that drives hundreds of thousands to millions of simulated
// client sessions through the broker's real placement, spill, and failover
// code paths — without opening a single socket.
//
// The paper measures rCUDA's remote-GPU overhead per call and per
// application; the natural next question for a cluster operator is
// behavioral: what does the *pool* do under 10^5–10^6 session arrivals —
// how long do sessions queue, how often do placements spill, how does an
// elastic fleet track a bursty offered load? Answering that with real
// processes would need a cluster; answering it with a toy model would not
// exercise the shipping code. This package takes the middle path the repo
// uses throughout (cf. internal/cluster, internal/netsim): the broker's
// Placer and Autoscaler — the exact production decision logic — run
// unmodified over simulated daemons on a discrete-event loop, so a million
// sessions cost microseconds each and every run is byte-reproducible from
// its seed.
//
// The simulation closes three loops:
//
//   - placement: arrivals queue FIFO; each placement asks the Placer under
//     the configured policy, spills on full daemons, and records the
//     queue wait in O(1)-memory log-bucketed histograms;
//   - health: probe ticks feed daemon gauges back through Placer.NoteProbe
//     — the same stampede guard and markdown/markup accounting as live
//     pools — optionally perturbed by an injected fault plan (daemon
//     crashes, stalls, stale gauges);
//   - elasticity: an optional Autoscaler observes demand each probe tick
//     and spawns or retires simulated daemons through a ScaleDriver that
//     drains a retiring daemon by live-migrating its resident durable
//     sessions to the rest of the fleet (the same move the live pool makes
//     with checkpoint streaming); a daemon holding non-durable sessions, or
//     one the fleet has no spare capacity to absorb, vetoes instead — so
//     scale-down can never strand a session.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"rcuda/internal/broker"
	"rcuda/internal/des"
	"rcuda/internal/faults"
	"rcuda/internal/protocol"
	"rcuda/internal/stats"
)

// Arrival selects the arrival process shape.
type Arrival int

// Arrival processes.
const (
	// Poisson draws i.i.d. exponential interarrival times at Rate.
	Poisson Arrival = iota
	// BurstyOnOff alternates exponential ON/OFF phases; during ON the
	// arrival rate is Rate·BurstFactor, during OFF it is Rate/BurstFactor.
	BurstyOnOff
)

// String implements fmt.Stringer.
func (a Arrival) String() string {
	switch a {
	case Poisson:
		return "poisson"
	case BurstyOnOff:
		return "bursty"
	default:
		return fmt.Sprintf("Arrival(%d)", int(a))
	}
}

// Class is one session class in the offered mix.
type Class struct {
	// Name labels the class in results.
	Name string
	// Weight is the class's share of arrivals (relative, not normalized).
	Weight float64
	// HoldMean is the mean session hold time (exponentially distributed).
	HoldMean time.Duration
	// Durable sessions survive daemon kills by failing over (replayed on
	// another daemon); non-durable sessions die with their daemon.
	Durable bool
	// SchedClass is the scheduling class the class's sessions declare in
	// their hello, as a protocol.SchedClass* wire code. It rides in the
	// JobSpec at placement so the ClassAware policy can rank daemons by
	// per-class headroom. Zero is unspecified: daemons fold it into batch.
	SchedClass uint32
}

// Config parameterizes one load-generation run. Every random draw in the
// run derives from Seed, so two runs with equal configs produce identical
// Results.
type Config struct {
	// Seed is the master seed; arrival, class, hold, and phase streams are
	// derived from it. Zero is a valid (and distinct) seed.
	Seed int64
	// Sessions is the number of sessions to generate. Defaults to 10 000.
	Sessions int
	// Arrival selects the arrival process; Rate is its mean rate in
	// sessions per second. Rate defaults to 2 000/s.
	Arrival Arrival
	Rate    float64
	// BurstOnMean and BurstOffMean are the mean ON/OFF phase durations of
	// the bursty process (exponentially distributed); BurstFactor scales
	// Rate up during ON and down during OFF. Defaults: 200ms, 200ms, 4.
	BurstOnMean, BurstOffMean time.Duration
	BurstFactor               float64
	// Classes is the offered mix. Empty defaults to a single durable class
	// with a 50ms mean hold.
	Classes []Class
	// Policy is the placement policy. Default LeastLoaded.
	Policy broker.Policy
	// InitialDaemons is the starting fleet size (default 4);
	// DaemonCapacity is each daemon's session capacity (default 64).
	InitialDaemons int
	DaemonCapacity int
	// Autoscale, when non-nil, closes the elasticity loop with the given
	// controller configuration. Nil keeps the fleet fixed.
	Autoscale *broker.AutoscalerConfig
	// FaultPlan, when non-nil, is consulted once per daemon per probe
	// tick: reset/truncate decisions crash the daemon (durable sessions
	// fail over, non-durable are lost), stall marks it down until the next
	// clean probe (one markdown/markup flap), latency leaves its gauges
	// stale for the tick.
	FaultPlan *faults.Plan
	// MaxDuration hard-stops the virtual clock, bounding runs whose
	// offered load can never drain. Defaults to 1 hour of virtual time;
	// only TestMaxDurationBoundsOverload sets it, to stop an overload early.
	MaxDuration time.Duration
}

// probeEvery is the gauge-refresh (and autoscaler observation) period;
// sampleEvery is the trajectory sampling period.
const (
	probeEvery  = 50 * time.Millisecond
	sampleEvery = time.Second
)

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 10_000
	}
	if c.Rate <= 0 {
		c.Rate = 2_000
	}
	if c.BurstOnMean <= 0 {
		c.BurstOnMean = 200 * time.Millisecond
	}
	if c.BurstOffMean <= 0 {
		c.BurstOffMean = 200 * time.Millisecond
	}
	if c.BurstFactor <= 1 {
		c.BurstFactor = 4
	}
	if len(c.Classes) == 0 {
		c.Classes = []Class{{Name: "default", Weight: 1, HoldMean: 50 * time.Millisecond, Durable: true}}
	}
	if c.InitialDaemons <= 0 {
		c.InitialDaemons = 4
	}
	if c.DaemonCapacity <= 0 {
		c.DaemonCapacity = 64
	}
	if c.MaxDuration <= 0 {
		c.MaxDuration = time.Hour
	}
	return c
}

// ClassResult summarizes one class's queue-wait distribution.
type ClassResult struct {
	Name     string
	Durable  bool
	Sessions int
	// SchedClass echoes the class's declared scheduling class wire code.
	SchedClass uint32
	// Placements counts placements recorded for the class — arrivals plus
	// failover re-placements.
	Placements int64
	WaitP50    time.Duration
	WaitP99    time.Duration
	WaitMax    time.Duration
	WaitMean   time.Duration
}

// Sample is one point of the fleet trajectory.
type Sample struct {
	// At is the virtual-clock instant of the sample.
	At time.Duration
	// Daemons is the live (spawned, not crashed, not retired) fleet size.
	Daemons int
	// Live and Queued are the placed and waiting session counts.
	Live, Queued int
}

// Result is the deterministic outcome of one run.
type Result struct {
	// Config echo, for self-describing artifacts.
	Seed     int64
	Sessions int
	Arrival  string
	Policy   string

	// Placed counts sessions that reached a daemon at least once;
	// Completed those that ran their full hold. LostNonDurable counts
	// non-durable sessions that died with a crashed daemon. Unplaced
	// sessions were still queued when the clock stopped. LostDurable is
	// what the run's own accounting cannot find: the sessions that arrived,
	// less those completed, lost non-durable, still placed or still queued.
	// Durable sessions fail over, so it must be zero; a durable session the
	// simulator drops shows up here.
	Placed         int64
	Completed      int64
	LostDurable    int64
	LostNonDurable int64
	Unplaced       int

	// Elapsed is the virtual time the run spanned; PlacedPerSec is the
	// placement throughput over it.
	Elapsed      time.Duration
	PlacedPerSec float64

	// QueueWaitP50/P99/Max/Mean summarize arrival→placement waits across
	// all classes; Classes breaks them down per class.
	QueueWaitP50  time.Duration
	QueueWaitP99  time.Duration
	QueueWaitMax  time.Duration
	QueueWaitMean time.Duration
	Classes       []ClassResult

	// DaemonsFinal and PeakDaemons bracket the fleet trajectory, sampled
	// in full in Trajectory.
	DaemonsFinal int
	PeakDaemons  int
	Trajectory   []Sample

	// Pool carries the Placer's counters (spills, failovers, flaps,
	// retirements); Autoscaler the controller's (nil-safe zero when the
	// run was fixed-fleet); Faults the number of injected fault decisions.
	Pool       broker.PoolStats
	Autoscaler broker.AutoscalerStats
	Faults     int64
}

var errDaemonDown = errors.New("loadgen: daemon down")
var errDaemonStalled = errors.New("loadgen: daemon stalled")

// session is one simulated client session. A record lives only while its
// session is queued or placed: a session that completes or is lost frees
// its record for the next arrival, so a run keeps as many records as it
// ever had sessions at once. Durability is read from the class.
type session struct {
	class int
	// arrival numbers the sessions in the order they arrived; replays walk
	// residents in this order.
	arrival int
	// enqueued is when the session last entered the queue (arrival or
	// failover re-enqueue); waits are measured from it.
	enqueued time.Duration
	hold     time.Duration
	// daemon is the current placement, -1 when queued or free.
	daemon int
	// epoch invalidates stale completion events after a failover, and after
	// the record is freed and taken by a later arrival: it is never reset,
	// so an event scheduled for an earlier occupant never matches.
	epoch uint32
	// slot is the session's index in its daemon's sessions while placed.
	slot int
	// next links a queued record to the one behind it in its queue, and a
	// free record to the next free one (-1 for none).
	next int
}

// chunk is how many session records the table adds at a time. The table
// grows by whole chunks and never copies one, so it holds fewer than chunk
// records more than the run ever had sessions at once.
const chunk = 256

// queue is a FIFO of session records linked through their next fields, so
// queueing a session allocates nothing.
type queue struct{ head, tail, n int }

// daemon is one simulated rcudad.
type daemon struct {
	idx     int // placer index
	alive   bool
	retired bool
	// sessions holds the resident session ids, in no particular order,
	// sized to Config.DaemonCapacity at spawn.
	sessions []int
	// classLive counts resident sessions per scheduling class row
	// (protocol.ClassRow) — the gauges a scheduler-enabled daemon reports
	// in its stats probe's class block.
	classLive [protocol.NumSchedClasses]int
}

// live is the number of resident sessions.
func (d *daemon) live() int { return len(d.sessions) }

type sim struct {
	cfg    Config
	loop   *des.EventLoop
	pl     *broker.Placer
	scaler *broker.Autoscaler

	daemons []*daemon
	alive   int
	peak    int

	// sessions is the record table in chunks; session(id) finds a record.
	// free heads the stack of records no session is using, linked through
	// their next fields (-1 for none): the next arrival takes the record
	// the last session to leave freed.
	sessions []*[chunk]session
	free     int
	// pending is the arrival FIFO, retry the failover FIFO (drained
	// first).
	pending, retry queue
	// room is the number of free session slots on alive, unretired
	// daemons: attach and detach move it by one, spawnDaemon adds a
	// daemon's capacity, kill takes away the dead daemon's free slots and
	// Retire the retired one's. While it is positive a placement walk
	// lands, so drain walks only then.
	room int
	// rankings holds one kept placement order per class: the class-aware
	// key depends on the class, so classes sharing a Ranking would re-key
	// the whole fleet at every switch.
	rankings []broker.Ranking
	// arriveFn and completeFn are s.arrive and s.complete bound once:
	// a method value allocates each time it is taken, and each session
	// schedules one arrival and at least one completion.
	arriveFn   func()
	completeFn func(int64)

	created        int
	placed         int64
	completed      int64
	lostNonDurable int64
	live           int
	faults         int64

	wait      *stats.DurationHistogram
	classWait []*stats.DurationHistogram
	classN    []int64

	arrRNG, classRNG, holdRNG, phaseRNG *rand.Rand
	burstOn                             bool
	totalWeight                         float64
	// next holds the arrivals drawn ahead and not yet taken, in drawn,
	// which nextDraw refills a block at a time.
	next  []draw
	drawn [drawBlock]draw

	trajectory []Sample
	stopped    bool
}

// Run executes one load-generation run to completion (all sessions done or
// MaxDuration reached) and returns its deterministic Result.
func Run(cfg Config) (*Result, error) {
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	return s.run(), nil
}

// run schedules the first arrival, phase flip, probe and sample, and runs
// the loop to its end.
func (s *sim) run() *Result {
	if s.cfg.Arrival == BurstyOnOff {
		s.loop.At(s.expDur(s.phaseRNG, s.cfg.BurstOnMean), s.togglePhase)
	}
	s.loop.At(s.interarrival(unitExp(s.arrRNG)), s.arriveFn)
	s.loop.At(probeEvery, s.probeTick)
	s.loop.At(sampleEvery, s.sampleTick)
	return s.result(s.loop.Run())
}

// newSim validates cfg and builds the run's initial fleet, with nothing
// scheduled yet.
func newSim(cfg Config) (*sim, error) {
	cfg = cfg.withDefaults()
	for i, cl := range cfg.Classes {
		if cl.Weight <= 0 {
			return nil, fmt.Errorf("loadgen: class %d (%q) has non-positive weight", i, cl.Name)
		}
		if cl.HoldMean <= 0 {
			return nil, fmt.Errorf("loadgen: class %d (%q) has non-positive hold mean", i, cl.Name)
		}
		if cl.SchedClass > protocol.SchedClassBestEffort {
			return nil, fmt.Errorf("loadgen: class %d (%q) has unknown scheduling class %d", i, cl.Name, cl.SchedClass)
		}
	}

	s := &sim{
		cfg:      cfg,
		loop:     des.NewEventLoop(),
		pl:       broker.NewPlacer(cfg.Policy),
		wait:     stats.NewDurationHistogram(),
		arrRNG:   rand.New(rand.NewSource(cfg.Seed)),
		classRNG: rand.New(rand.NewSource(cfg.Seed + 1)),
		holdRNG:  rand.New(rand.NewSource(cfg.Seed + 2)),
		phaseRNG: rand.New(rand.NewSource(cfg.Seed + 3)),
		burstOn:  true,
		free:     -1,
		rankings: make([]broker.Ranking, len(cfg.Classes)),
	}
	for _, cl := range cfg.Classes {
		s.totalWeight += cl.Weight
		s.classWait = append(s.classWait, stats.NewDurationHistogram())
		s.classN = append(s.classN, 0)
	}
	for i := 0; i < cfg.InitialDaemons; i++ {
		s.spawnDaemon()
	}
	if cfg.Autoscale != nil {
		s.scaler = broker.NewAutoscaler(*cfg.Autoscale, (*scaleDriver)(s))
	}
	s.arriveFn = s.arrive
	s.completeFn = s.complete
	return s, nil
}

// spawnDaemon adds one daemon to the fleet and registers it with the
// placer.
func (s *sim) spawnDaemon() *daemon {
	d := &daemon{
		alive:    true,
		sessions: make([]int, 0, s.cfg.DaemonCapacity),
	}
	d.idx = s.pl.Add(broker.Endpoint{Name: fmt.Sprintf("sim-%d", len(s.daemons))})
	s.daemons = append(s.daemons, d)
	s.room += s.cfg.DaemonCapacity
	s.alive++
	if s.alive > s.peak {
		s.peak = s.alive
	}
	return d
}

// unitExp draws an exponential with mean one.
func unitExp(rng *rand.Rand) float64 { return -math.Log(1 - rng.Float64()) }

// expDur draws an exponential duration with the given mean.
func (s *sim) expDur(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(unitExp(rng) * float64(mean))
}

// draw is one arrival's share of the class, hold and arrival streams: the
// class and hold of the session that arrives, and the unit exponential of
// the gap before the arrival after it.
type draw struct {
	e     float64
	hold  time.Duration
	class int
}

// drawBlock is the number of arrivals nextDraw draws in one pass.
const drawBlock = 128

// nextDraw returns the next arrival's draw. The three streams depend on
// nothing the loop does, so a block of arrivals is drawn in one tight
// pass, stream by stream in order, instead of one arrival between
// placements; interarrival scales each unit exponential by the mean gap
// of the phase in force, the same two float operations expDur does, so
// every draw is bit-identical to one drawn at its arrival.
func (s *sim) nextDraw() draw {
	if len(s.next) == 0 {
		for i := range s.drawn {
			c := s.pickClass()
			s.drawn[i] = draw{e: unitExp(s.arrRNG), hold: s.expDur(s.holdRNG, s.cfg.Classes[c].HoldMean), class: c}
		}
		s.next = s.drawn[:]
	}
	d := s.next[0]
	s.next = s.next[1:]
	return d
}

// interarrival scales a unit exponential to the next arrival gap at the
// current phase rate.
func (s *sim) interarrival(e float64) time.Duration {
	rate := s.cfg.Rate
	if s.cfg.Arrival == BurstyOnOff {
		if s.burstOn {
			rate *= s.cfg.BurstFactor
		} else {
			rate /= s.cfg.BurstFactor
		}
	}
	return time.Duration(e * float64(time.Duration(float64(time.Second)/rate)))
}

// togglePhase flips the bursty process's ON/OFF phase.
func (s *sim) togglePhase() {
	if s.stopped || s.created >= s.cfg.Sessions {
		return
	}
	s.burstOn = !s.burstOn
	mean := s.cfg.BurstOnMean
	if !s.burstOn {
		mean = s.cfg.BurstOffMean
	}
	s.loop.At(s.expDur(s.phaseRNG, mean), s.togglePhase)
}

// pickClass draws a class index by weight.
func (s *sim) pickClass() int {
	u := s.classRNG.Float64() * s.totalWeight
	for i, cl := range s.cfg.Classes {
		if u < cl.Weight {
			return i
		}
		u -= cl.Weight
	}
	return len(s.cfg.Classes) - 1
}

// pastDeadline stops the clock once MaxDuration is reached. The deadline
// is checked at event time rather than scheduled as an event of its own,
// so a run that drains early ends at its last real event, not at the
// deadline.
func (s *sim) pastDeadline() bool {
	if s.stopped {
		return true
	}
	if s.loop.Now() >= s.cfg.MaxDuration {
		s.stopped = true
		s.loop.Stop()
		return true
	}
	return false
}

// arrive creates one session, queues it, and schedules the next arrival.
func (s *sim) arrive() {
	if s.pastDeadline() {
		return
	}
	d := s.nextDraw()
	s.push(&s.pending, s.newSession(d.class, d.hold))
	s.created++
	s.classN[d.class]++
	if s.created < s.cfg.Sessions {
		s.loop.At(s.interarrival(d.e), s.arriveFn)
	}
	s.drain()
}

// session returns record id.
func (s *sim) session(id int) *session { return &s.sessions[id/chunk][id%chunk] }

// push appends record id to q.
func (s *sim) push(q *queue, id int) {
	s.session(id).next = -1
	if q.n == 0 {
		q.head = id
	} else {
		s.session(q.tail).next = id
	}
	q.tail = id
	q.n++
}

// pop removes q's head record.
func (s *sim) pop(q *queue) {
	q.head = s.session(q.head).next
	q.n--
}

// newSession gives an arrival a free record, adding a chunk to the table
// when none is free, and returns its id. A record keeps its epoch from one
// session to the next.
func (s *sim) newSession(class int, hold time.Duration) int {
	if s.free < 0 {
		first := len(s.sessions) * chunk
		s.sessions = append(s.sessions, new([chunk]session))
		for id := first + chunk - 1; id >= first; id-- {
			s.freeSession(id)
		}
	}
	id := s.free
	sess := s.session(id)
	s.free = sess.next
	sess.class, sess.arrival, sess.enqueued, sess.hold = class, s.created, s.loop.Now(), hold
	sess.daemon = -1
	return id
}

// freeSession returns record id to the free stack.
func (s *sim) freeSession(id int) {
	s.session(id).next = s.free
	s.free = id
}

// byArrival orders session ids by arrival, the order replays walk.
func (s *sim) byArrival(ids []int) {
	slices.SortFunc(ids, func(a, b int) int { return s.session(a).arrival - s.session(b).arrival })
}

// queued returns the number of sessions waiting for placement.
func (s *sim) queued() int { return s.retry.n + s.pending.n }

// drain places queued sessions, failover retries first, while the queue
// holds one and some daemon has room. Admission is class-blind, so with no
// room anywhere every session would walk the same full fleet to the same
// end: the queue waits instead, until a completion or a spawn frees a
// slot.
func (s *sim) drain() {
	for s.room > 0 && s.queued() > 0 {
		q := &s.pending
		if s.retry.n > 0 {
			q = &s.retry
		}
		s.place(q.head)
		s.pop(q)
	}
}

// place places one session the way Pool.open does: the Placer ranks the
// fleet once and the session walks that order — a full daemon spills (and
// is marked full, so later placements try it last until a release or a
// probe clears the mark), a dead one is marked down, either way the walk
// moves to the next candidate. The ranking holds every alive daemon, so
// with room > 0 the walk lands; one that runs out means room has lost
// count, and place panics rather than drop the session.
func (s *sim) place(id int) {
	sess := s.session(id)
	spec := broker.JobSpec{Class: s.cfg.Classes[sess.class].SchedClass}
	r := &s.rankings[sess.class]
	s.pl.Rank(spec, r)
	for {
		idx, ok := r.Next()
		if !ok {
			panic(fmt.Sprintf("loadgen: room is %d but the placement walk found no daemon with room", s.room))
		}
		d := s.daemons[idx]
		switch {
		case !d.alive:
			s.pl.NoteFailure(idx, errDaemonDown)
		case d.live() >= s.cfg.DaemonCapacity:
			s.pl.NoteSpill(idx)
		default:
			s.attach(d, id)
			sess.daemon = idx
			sess.epoch++
			s.live++
			s.placed++
			s.pl.NotePlaced(idx)
			w := s.loop.Now() - sess.enqueued
			s.wait.Record(w)
			s.classWait[sess.class].Record(w)
			s.loop.AtArg(sess.hold, s.completeFn, int64(id)<<32|int64(sess.epoch))
			return
		}
	}
}

// attach records session id as resident on d.
func (s *sim) attach(d *daemon, id int) {
	sess := s.session(id)
	sess.slot = len(d.sessions)
	d.sessions = append(d.sessions, id)
	row, _ := protocol.ClassRow(s.cfg.Classes[sess.class].SchedClass)
	d.classLive[row]++
	s.room--
}

// detach removes session id from d's residents, moving the last resident
// into its slot, and tells the placer the session left: every path that
// lowers an alive daemon's occupancy goes through it.
func (s *sim) detach(d *daemon, id int) {
	sess := s.session(id)
	row, _ := protocol.ClassRow(s.cfg.Classes[sess.class].SchedClass)
	d.classLive[row]--
	last := len(d.sessions) - 1
	moved := d.sessions[last]
	d.sessions[sess.slot] = moved
	s.session(moved).slot = sess.slot
	d.sessions = d.sessions[:last]
	s.room++
	s.pl.NoteRelease(d.idx)
}

// complete finishes a session's hold, unless a failover made this event
// stale. ev is the event as place scheduled it: the session id in the high
// half, the session's epoch at placement in the low half.
func (s *sim) complete(ev int64) {
	if s.stopped {
		return
	}
	id, epoch := int(ev>>32), uint32(ev)
	sess := s.session(id)
	if sess.epoch != epoch || sess.daemon < 0 {
		return
	}
	s.detach(s.daemons[sess.daemon], id)
	sess.daemon = -1
	sess.epoch++
	s.freeSession(id)
	s.live--
	s.completed++
	s.drain()
}

// kill crashes a daemon: durable sessions re-enter the queue for failover,
// non-durable ones are lost with it. The daemon never recovers (the
// autoscaler, when enabled, replaces it).
func (s *sim) kill(d *daemon) {
	if !d.alive {
		return
	}
	d.alive = false
	s.alive--
	s.room -= s.cfg.DaemonCapacity - d.live()
	s.pl.NoteFailure(d.idx, errDaemonDown)
	ids := d.sessions
	s.byArrival(ids) // replay in arrival order, whatever order placements left
	for _, id := range ids {
		sess := s.session(id)
		sess.daemon = -1
		sess.epoch++
		s.live--
		if s.cfg.Classes[sess.class].Durable {
			sess.enqueued = s.loop.Now()
			s.push(&s.retry, id)
			s.pl.NoteFailover()
		} else {
			s.freeSession(id)
			s.lostNonDurable++
		}
	}
	d.classLive = [protocol.NumSchedClasses]int{}
	d.sessions = ids[:0]
	s.pl.NoteRelease(d.idx)
}

// workRemains reports whether the run still has arrivals, live sessions,
// or queued sessions — the condition for keeping periodic ticks alive.
func (s *sim) workRemains() bool {
	return !s.stopped && (s.created < s.cfg.Sessions || s.live > 0 || s.queued() > 0)
}

// probeTick refreshes every daemon's gauges through the placer — the same
// NoteProbe path a live pool's prober uses — consulting the fault plan per
// daemon, then feeds the autoscaler one observation.
func (s *sim) probeTick() {
	if s.pastDeadline() {
		return
	}
	for _, d := range s.daemons {
		if d.retired {
			continue
		}
		var dec faults.Decision
		if s.cfg.FaultPlan != nil {
			dec = s.cfg.FaultPlan.Next(faults.DirAny)
			if dec.Kind != faults.KindNone {
				s.faults++
			}
		}
		switch dec.Kind {
		case faults.KindReset, faults.KindTruncate:
			s.kill(d)
			continue
		case faults.KindStall:
			// The daemon went silent for this probe: marked down until the
			// next clean probe marks it back up — one flap.
			s.pl.NoteProbe(d.idx, nil, errDaemonStalled)
			continue
		case faults.KindLatency:
			// The probe straggles past the tick: gauges stay stale.
			continue
		}
		if !d.alive {
			s.pl.NoteProbe(d.idx, nil, errDaemonDown)
			continue
		}
		// The placer copies what it ranks on, so the reply stays here.
		// Every sim daemon answers as a scheduler-enabled one, with the
		// per-class block the class-aware policy ranks on.
		reply := protocol.StatsReply{SessionsLive: uint32(d.live()), HasClasses: true}
		for ci, n := range d.classLive {
			reply.Classes[ci] = protocol.ClassLoad{Sessions: uint32(n)}
		}
		s.pl.NoteProbe(d.idx, &reply, nil)
	}
	if s.scaler != nil {
		demand := s.live + s.queued()
		delta, _ := s.scaler.Observe(s.loop.Now(), demand, s.alive)
		if delta > 0 {
			s.drain()
		}
	}
	// A dead fleet with no autoscaler can still recover nothing; keep
	// ticking only while ticks can matter.
	if s.workRemains() {
		s.loop.At(probeEvery, s.probeTick)
	}
	s.drain()
}

// sampleTick records one trajectory point.
func (s *sim) sampleTick() {
	if s.pastDeadline() {
		return
	}
	s.trajectory = append(s.trajectory, Sample{
		At:      s.loop.Now(),
		Daemons: s.alive,
		Live:    s.live,
		Queued:  s.queued(),
	})
	if s.workRemains() {
		s.loop.At(sampleEvery, s.sampleTick)
	}
}

// scaleDriver adapts the sim to broker.ScaleDriver. Retire drains the
// least-loaded drainable daemon by live-migrating its resident durable
// sessions onto peers with room — sessions keep running through the move,
// with no re-queue and no failover. A daemon holding any non-durable
// session (nothing to checkpoint) vetoes, as does a fleet with too little
// room to absorb the residents; either way scale-down cannot strand work by
// construction.
type scaleDriver sim

func (sd *scaleDriver) Spawn() error {
	s := (*sim)(sd)
	s.spawnDaemon()
	return nil
}

func (sd *scaleDriver) Retire() (bool, error) {
	s := (*sim)(sd)
	src := s.retireCandidate()
	if src == nil {
		return false, nil
	}
	s.drainByMigration(src)
	src.retired = true
	src.alive = false
	s.alive--
	s.room -= s.cfg.DaemonCapacity
	s.pl.Retire(src.idx)
	return true, nil
}

// retireCandidate picks the daemon to drain: the alive, unretired daemon
// with the fewest resident sessions whose residents are all durable (a
// non-durable session dies with its daemon and so pins it). The rest of the
// fleet can absorb a candidate's residents exactly when room, which counts
// the candidate's own free slots too, is at least one daemon's capacity,
// whichever the candidate. Nil means every candidate vetoes.
func (s *sim) retireCandidate() *daemon {
	if s.room < s.cfg.DaemonCapacity {
		return nil
	}
	var best *daemon
candidates:
	for _, d := range s.daemons {
		if !d.alive || d.retired || best != nil && d.live() >= best.live() {
			continue
		}
		for _, id := range d.sessions {
			if !s.cfg.Classes[s.session(id).class].Durable {
				continue candidates
			}
		}
		best = d
	}
	return best
}

// drainByMigration live-migrates every resident session of src, in
// arrival order so replays are deterministic, onto the first daemon with
// room that the Placer ranks for the session's class, as a placement of it
// would. The sessions' hold timers keep running: a migration is invisible
// to the session, there is no re-queue and no replay. retireCandidate chose
// src only with room for its residents elsewhere, and each move keeps that
// true, so every walk finds a destination; one that does not means room
// has lost count, and drainByMigration panics.
func (s *sim) drainByMigration(src *daemon) {
	ids := slices.Clone(src.sessions) // detach reorders src.sessions
	s.byArrival(ids)
	for _, id := range ids {
		class := s.session(id).class
		r := &s.rankings[class]
		s.pl.Rank(broker.JobSpec{Class: s.cfg.Classes[class].SchedClass}, r)
		var dest *daemon
		for dest == nil {
			idx, ok := r.Next()
			if !ok {
				panic(fmt.Sprintf("loadgen: room is %d but no daemon has room for a migration", s.room))
			}
			if d := s.daemons[idx]; d != src && d.alive && !d.retired && d.live() < s.cfg.DaemonCapacity {
				dest = d
			}
		}
		s.detach(src, id)
		s.attach(dest, id)
		s.session(id).daemon = dest.idx
		s.pl.NoteMigration(dest.idx, 0)
	}
}

// result assembles the Result snapshot.
func (s *sim) result(elapsed time.Duration) *Result {
	r := &Result{
		Seed:           s.cfg.Seed,
		Sessions:       s.cfg.Sessions,
		Arrival:        s.cfg.Arrival.String(),
		Policy:         s.cfg.Policy.String(),
		Placed:         s.placed,
		Completed:      s.completed,
		LostNonDurable: s.lostNonDurable,
		LostDurable:    int64(s.created) - s.completed - s.lostNonDurable - int64(s.live) - int64(s.queued()),
		Unplaced:       s.queued(),
		Elapsed:        elapsed,
		QueueWaitP50:   s.wait.Percentile(50),
		QueueWaitP99:   s.wait.Percentile(99),
		QueueWaitMax:   s.wait.Max(),
		QueueWaitMean:  s.wait.Mean(),
		DaemonsFinal:   s.alive,
		PeakDaemons:    s.peak,
		Trajectory:     s.trajectory,
		Pool:           s.pl.Stats(),
		Faults:         s.faults,
	}
	if s.scaler != nil {
		r.Autoscaler = s.scaler.Stats()
	}
	if elapsed > 0 {
		r.PlacedPerSec = float64(s.placed) / elapsed.Seconds()
	}
	for i, cl := range s.cfg.Classes {
		h := s.classWait[i]
		r.Classes = append(r.Classes, ClassResult{
			Name:       cl.Name,
			Durable:    cl.Durable,
			Sessions:   int(s.classN[i]),
			SchedClass: cl.SchedClass,
			Placements: int64(h.N()),
			WaitP50:    h.Percentile(50),
			WaitP99:    h.Percentile(99),
			WaitMax:    h.Max(),
			WaitMean:   h.Mean(),
		})
	}
	return r
}
