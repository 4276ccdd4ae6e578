package broker

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rcuda/internal/protocol"
	"rcuda/internal/stats"
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
	mu  sync.Mutex
	eps []*endpointState
	// view is the endpoint table for the notes that read an endpoint's full
	// mark without the mutex: the table's backing array to its capacity,
	// published by the Add that grew it (see add). Views only grow, so an
	// index an Add returned lies inside every view loaded after it.
	view   atomic.Pointer[[]*endpointState]
	policy Policy
	rr     int
	stats  PoolCounts[atomic.Int64]
	// stamp counts changes to endpoints' ranking inputs; gen counts changes
	// to the set of rankable endpoints. A kept Ranking compares both with
	// what it saw last.
	stamp, gen uint64
	// journal holds, at stamp%journalLen, the endpoint each of the last
	// journalLen stamps went to: what a kept Ranking replays.
	journal [journalLen]int32
}

// journalLen is how many changes a kept Ranking may be behind and still
// replay them; one further behind ranks afresh. Kept ranks in the two
// fleet_place shapes are at most 71 changes behind, and all but 7 of
// 842 008 within 64; session_churn's at most 3 (DESIGN.md §17).
const journalLen = 64

// touch records that one of endpoint idx's ranking inputs is changing,
// and returns the endpoint for the change.
func (s *placerState) touch(idx int) *endpointState {
	s.stamp++
	s.eps[idx].changed = s.stamp
	s.journal[s.stamp%journalLen] = int32(idx)
	return s.eps[idx]
}

// viewed returns endpoint idx without the mutex. The caller reads only the
// endpoint's atomic fields.
func (s *placerState) viewed(idx int) *endpointState { return (*s.view.Load())[idx] }

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
	if len(s.eps) < cap(s.eps) {
		s.eps = append(s.eps, &endpointState{ep: ep, up: true})
	} else {
		// The append moves the table to a new backing array, whose header
		// is published in the endpoint's own allocation. Nothing writes the
		// header again; later Adds fill the slots it already spans.
		g := &grownEndpoint{endpointState: endpointState{ep: ep, up: true}}
		s.eps = append(s.eps, &g.endpointState)
		g.view = s.eps[:cap(s.eps)]
		s.view.Store(&g.view)
	}
	s.gen++
	return len(s.eps) - 1
}

// grownEndpoint is the record of an endpoint whose Add grew the table,
// allocated together with the header placerState.view points at.
type grownEndpoint struct {
	endpointState
	view []*endpointState
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
		s.stats.Retirements.Add(1)
	}
}

// Len returns the total endpoint count, including retired slots.
func (p *Placer) Len() int {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.eps)
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
// spec replays the placer's journal of changes since the last Rank, moving
// each changed endpoint from its place to its new one among the rest, which
// are still in order. The zero value is ready for Rank, which then keys
// everything, as it does for a Ranking further behind than the journal
// reaches. A Ranking is not safe for concurrent use.
type Ranking struct {
	pl    *Placer
	keys  []candidate // by endpoint index: what each was last keyed as
	order []int32     // every non-retired endpoint index, best first
	at    []int32     // by endpoint index: its place in order
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
	s.stats.Placements.Add(1)
}

// NoteSpill counts a placement that moved to the next-best endpoint after
// the endpoint at idx refused admission, and marks that endpoint full: it
// ranks after every unmarked endpoint until a successful probe or a
// NoteRelease says it may have room again.
//
// On an endpoint already marked it only counts the spill, without the
// mutex: the mark it would set is there.
func (p *Placer) NoteSpill(idx int) {
	s := &p.state
	if !s.viewed(idx).fullMark.Load() {
		s.mu.Lock()
		if !s.eps[idx].full {
			s.touch(idx).setFull(true)
		}
		s.mu.Unlock()
	}
	s.stats.Spills.Add(1)
}

// NoteRelease records that a session left the endpoint — it completed, was
// migrated away, or died with its daemon — and clears the endpoint's full
// mark. Every path that lowers an endpoint's occupancy calls it. On an
// unmarked endpoint it returns without the mutex: there is nothing to clear.
func (p *Placer) NoteRelease(idx int) {
	s := &p.state
	if !s.viewed(idx).fullMark.Load() {
		return
	}
	s.mu.Lock()
	if s.eps[idx].full {
		s.touch(idx).setFull(false)
	}
	s.mu.Unlock()
}

// NoteFailover counts a job replayed on another endpoint after its session
// was lost mid-run.
func (p *Placer) NoteFailover() { p.state.stats.Failovers.Add(1) }

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
	s.stats.Migrations.Add(1)
	s.stats.MigrationBytes.Add(bytes)
}

// NoteMigrationFailure counts a live migration that failed; the session
// stays intact on its source.
func (p *Placer) NoteMigrationFailure() { p.state.stats.MigrationFailures.Add(1) }

// NoteRestoreFailover counts a route redial that failed over to a peer
// endpoint after the pinned one became unreachable — the path by which a
// session resumes from a migrated or standby-checkpoint copy instead of
// being replayed.
func (p *Placer) NoteRestoreFailover() { p.state.stats.RestoreFromCheckpoint.Add(1) }

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
		s.stats.Markdowns.Add(1)
	}
}

// NoteProbe records one health-probe outcome: a successful probe replaces
// the endpoint's load gauges, resets the placed-since-probe guard, clears
// the full mark, and marks the endpoint up; a failed probe marks it down.
// Markdown/markup transitions accumulate in the flap counters. The placer
// copies the gauges out of load; the caller keeps the reply and may reuse
// it as soon as NoteProbe returns.
func (p *Placer) NoteProbe(idx int, load *protocol.StatsReply, err error) {
	s := &p.state
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteProbe(idx, load, err)
}

func (s *placerState) noteProbe(idx int, load *protocol.StatsReply, err error) {
	s.stats.Probes.Add(1)
	st := s.touch(idx)
	if err != nil {
		s.stats.ProbeFailures.Add(1)
		s.noteFailure(idx, err)
		return
	}
	devices := st.lastProbe.Devices[:0]
	st.lastProbe = *load
	st.lastProbe.Devices = append(devices, load.Devices...)
	st.load = &st.lastProbe
	st.placed = 0
	st.setFull(false)
	st.lastErr = nil
	if !st.up {
		st.up = true
		s.stats.Markups.Add(1)
	}
}

// Stats returns a snapshot of the placement and health counters.
func (p *Placer) Stats() PoolStats { return stats.Load[PoolStats](&p.state.stats) }

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
