package broker

import (
	"fmt"
	"sync"

	"rcuda/internal/protocol"
)

// Placer is the pool's placement core, factored out of Pool so the same
// code path decides placements whether the endpoints are live rcudad
// servers (Pool dials them and moves real frames) or the load generator's
// simulated daemons (internal/loadgen feeds gauges directly and never opens
// a socket). It owns the endpoint table, the live health/load view, the
// policy ranking, and the pool counters; everything wire-shaped — dialing,
// probing, session opening — stays in Pool.
//
// A Placer is safe for concurrent use. Endpoint indices are stable for the
// Placer's lifetime: retiring an endpoint excludes it from future picks but
// keeps its slot (and its accumulated stats) addressable, so sessions that
// recorded their placement index stay meaningful during elastic scale-down.
type Placer struct {
	// The zero value is unusable; NewPlacer initializes.
	state placerState
}

// placerState separates the lockable core so Pool (same package) can keep
// its probe-connection bookkeeping under the same mutex.
type placerState struct {
	mu     sync.Mutex
	eps    []*endpointState
	policy Policy
	rr     int
	stats  poolCounters
	// stamp counts changes to endpoints' ranking inputs; gen counts changes
	// to the set of rankable endpoints. A kept Ranking compares both with
	// what it saw last.
	stamp, gen uint64
}

// touch records that one of endpoint idx's ranking inputs is changing,
// and returns the endpoint for the change.
func (s *placerState) touch(idx int) *endpointState {
	s.stamp++
	s.eps[idx].changed = s.stamp
	return s.eps[idx]
}

// NewPlacer returns an empty placer using the given policy. Endpoints are
// added with Add.
func NewPlacer(policy Policy) *Placer {
	p := &Placer{}
	p.state.policy = policy
	return p
}

// Add registers an endpoint and returns its stable index. The endpoint
// starts marked up, like New's. Only Name and Link matter to a pure
// placer; Dial may be nil when no real connections will be opened.
func (p *Placer) Add(ep Endpoint) int {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.add(ep)
}

func (s *placerState) add(ep Endpoint) int {
	if ep.Name == "" {
		ep.Name = fmt.Sprintf("server-%d", len(s.eps))
	}
	s.eps = append(s.eps, &endpointState{ep: ep, up: true})
	s.gen++
	return len(s.eps) - 1
}

// Retire permanently excludes the endpoint from future picks. Its index
// remains valid for stats and failure notes. Retiring twice is a no-op.
func (p *Placer) Retire(idx int) {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx >= 0 && idx < len(s.eps) && !s.eps[idx].retired {
		s.eps[idx].retired = true
		s.gen++
		s.stats.retirements.Add(1)
	}
}

// Len returns the total endpoint count, including retired slots.
func (p *Placer) Len() int {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.eps)
}

// ActiveLen returns the number of non-retired endpoints.
func (p *Placer) ActiveLen() int {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, st := range s.eps {
		if !st.retired {
			n++
		}
	}
	return n
}

// Name returns the endpoint's name.
func (p *Placer) Name(idx int) string {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eps[idx].ep.Name
}

// endpoint returns a copy of the endpoint record at idx, false when idx is
// out of range.
func (p *Placer) endpoint(idx int) (Endpoint, bool) {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx < 0 || idx >= len(s.eps) {
		return Endpoint{}, false
	}
	return s.eps[idx].ep, true
}

// failoverCandidates lists the non-retired endpoints a dead endpoint's
// sessions could resume on, marked-up ones first, excluding the dead one.
func (p *Placer) failoverCandidates(exclude int) []int {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	var up, down []int
	for i, st := range s.eps {
		if i == exclude || st.retired {
			continue
		}
		if st.up {
			up = append(up, i)
		} else {
			down = append(down, i)
		}
	}
	return append(up, down...)
}

// Pick selects the next endpoint for a session under the policy,
// considering non-retired endpoints not in exclude: the first candidate of
// the order a Ranking walks (see candidate). Callers that may be refused and
// try again should Rank once and walk instead of calling Pick in a loop.
func (p *Placer) Pick(spec JobSpec, exclude map[int]bool) (int, bool) {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pick(spec, exclude)
}

// Ranking is one placement's candidate order: every non-retired endpoint,
// keyed by Placer.Rank under one lock acquisition, sorted, and handed out
// best-first by Next. Walking it visits endpoints in exactly the order a
// loop of Picks with a growing exclude set would, at one key computation
// per endpoint instead of one per endpoint per refusal. The order is a
// snapshot: marks, gauges and retirements that land while the caller dials
// do not change a walk in progress.
//
// A Ranking is kept, not rebuilt: ranking again for the same placer and
// spec re-keys only the endpoints whose inputs changed since the last Rank
// and inserts them into the rest, which are still in order. The zero value
// is ready for Rank, which then keys everything. A Ranking is not safe for
// concurrent use.
type Ranking struct {
	pl    *Placer
	keys  []candidate // by endpoint index: what each was last keyed as
	order []int       // every non-retired endpoint index, best first
	next  int
	// cursor is, under RoundRobin, the first round-robin position no
	// handed-out candidate has reached yet; -1 under the other policies.
	cursor int
	// What the keys were keyed from: the placer's generation and change
	// counter, and the spec.
	gen, stamp uint64
	spec       JobSpec
}

// Rank ranks the endpoints for one placement into r, replacing whatever
// walk r held.
func (p *Placer) Rank(spec JobSpec, r *Ranking) {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rank(p, spec, r)
}

// Next hands out the next-best endpoint not yet handed out, false when the
// walk is exhausted. Under RoundRobin the placer's cursor moves past the
// endpoint, as a Pick returning it would have moved it.
func (r *Ranking) Next() (int, bool) {
	if r.next == len(r.order) {
		return 0, false
	}
	c := &r.keys[r.order[r.next]]
	r.next++
	if pos := int(c.key[0]); r.cursor >= 0 && pos >= r.cursor {
		// Full-marked endpoints are handed out late but keep their place in
		// the rotation, so the cursor only ever moves forward.
		r.cursor = pos + 1
		s := &r.pl.state
		s.mu.Lock()
		s.rr = c.idx + 1
		s.mu.Unlock()
	}
	return c.idx, true
}

// NotePlaced records a successful placement on the endpoint: the placement
// counter increments and the endpoint's placed-since-probe guard grows so a
// burst of placements between probes does not stampede the currently
// least-loaded server.
func (p *Placer) NotePlaced(idx int) {
	s := &p.state
	s.mu.Lock()
	s.touch(idx).placed++
	s.mu.Unlock()
	s.stats.placements.Add(1)
}

// NoteSpill counts a placement that moved to the next-best endpoint after
// the endpoint at idx refused admission, and marks that endpoint full: it
// ranks after every unmarked endpoint until a successful probe or a
// NoteRelease says it may have room again.
func (p *Placer) NoteSpill(idx int) {
	s := &p.state
	s.mu.Lock()
	if !s.eps[idx].full {
		s.touch(idx).full = true
	}
	s.mu.Unlock()
	s.stats.spills.Add(1)
}

// NoteRelease records that a session left the endpoint — it completed, was
// migrated away, or died with its daemon — and clears the endpoint's full
// mark. Every path that lowers an endpoint's occupancy calls it.
func (p *Placer) NoteRelease(idx int) {
	s := &p.state
	s.mu.Lock()
	if s.eps[idx].full {
		s.touch(idx).full = false
	}
	s.mu.Unlock()
}

// NoteFailover counts a job replayed on another endpoint after its session
// was lost mid-run.
func (p *Placer) NoteFailover() { p.state.stats.failovers.Add(1) }

// NoteMigration records a completed live migration onto the endpoint at
// destIdx: the migration counters grow and the destination's
// placed-since-probe guard rises so a burst of migrations cannot stampede
// the currently least-loaded server.
func (p *Placer) NoteMigration(destIdx int, bytes int64) {
	s := &p.state
	s.mu.Lock()
	if destIdx >= 0 && destIdx < len(s.eps) {
		s.touch(destIdx).placed++
	}
	s.mu.Unlock()
	s.stats.migrations.Add(1)
	s.stats.migrationBytes.Add(bytes)
}

// NoteMigrationFailure counts a live migration that failed; the session
// stays intact on its source.
func (p *Placer) NoteMigrationFailure() { p.state.stats.migrationFailures.Add(1) }

// NoteRestoreFailover counts a route redial that failed over to a peer
// endpoint after the pinned one became unreachable — the path by which a
// session resumes from a migrated or standby-checkpoint copy instead of
// being replayed.
func (p *Placer) NoteRestoreFailover() { p.state.stats.restoreFromCheckpoint.Add(1) }

// NoteFailure marks an endpoint down after a placement or session failure.
func (p *Placer) NoteFailure(idx int, err error) {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteFailure(idx, err)
}

func (s *placerState) noteFailure(idx int, err error) {
	st := s.eps[idx]
	st.lastErr = err
	if st.up {
		s.touch(idx).up = false
		s.stats.markdowns.Add(1)
	}
}

// NoteProbe records one health-probe outcome: a successful probe replaces
// the endpoint's load gauges, resets the placed-since-probe guard, clears
// the full mark, and marks the endpoint up; a failed probe marks it down.
// Markdown/markup transitions accumulate in the flap counters.
func (p *Placer) NoteProbe(idx int, load *protocol.StatsReply, err error) {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteProbe(idx, load, err)
}

func (s *placerState) noteProbe(idx int, load *protocol.StatsReply, err error) {
	s.stats.probes.Add(1)
	st := s.touch(idx)
	if err != nil {
		s.stats.probeFailures.Add(1)
		s.noteFailure(idx, err)
		return
	}
	st.load = load
	st.placed = 0
	st.full = false
	st.lastErr = nil
	if !st.up {
		st.up = true
		s.stats.markups.Add(1)
	}
}

// Stats returns a snapshot of the placement and health counters.
func (p *Placer) Stats() PoolStats {
	c := &p.state.stats
	return PoolStats{
		Placements:    c.placements.Load(),
		Spills:        c.spills.Load(),
		Failovers:     c.failovers.Load(),
		Probes:        c.probes.Load(),
		ProbeFailures: c.probeFailures.Load(),
		Markdowns:     c.markdowns.Load(),
		Markups:       c.markups.Load(),
		Retirements:   c.retirements.Load(),

		Migrations:            c.migrations.Load(),
		MigrationBytes:        c.migrationBytes.Load(),
		MigrationFailures:     c.migrationFailures.Load(),
		RestoreFromCheckpoint: c.restoreFromCheckpoint.Load(),
	}
}

// Endpoints reports every endpoint's health and last-probed load, in
// registration order (retired slots included).
func (p *Placer) Endpoints() []EndpointStatus {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EndpointStatus, 0, len(s.eps))
	for _, st := range s.eps {
		es := EndpointStatus{
			Name:             st.ep.Name,
			Up:               st.up,
			Retired:          st.retired,
			Probed:           st.load != nil,
			PlacedSinceProbe: st.placed,
			Full:             st.full,
		}
		if st.lastErr != nil {
			es.LastErr = st.lastErr.Error()
		}
		if st.load != nil {
			es.SessionsLive = st.load.SessionsLive
			es.SessionsParked = st.load.SessionsParked
			es.Devices = len(st.load.Devices)
			for _, d := range st.load.Devices {
				es.BytesInUse += d.BytesInUse
				es.BusyNanos += d.BusyNanos
			}
		}
		out = append(out, es)
	}
	return out
}
