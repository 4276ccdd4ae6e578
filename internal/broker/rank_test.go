package broker

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/raceflag"
)

// refPick is the placement core as it stood before the ranked walk: one
// pass per preference tier (up, then down), a policy-specific scan with a
// strict "better" replacing the incumbent, candidates filtered through an
// exclude map. The equivalence tests walk it with a growing exclude set —
// the loop Pool.open and loadgen.place used to run — and hold the ranked
// walk to its order, element for element. It knows nothing of full marks.
func refPick(s *placerState, spec JobSpec, exclude map[int]bool) (int, bool) {
	for _, wantUp := range []bool{true, false} {
		candidate := func(i int) bool {
			return !exclude[i] && !s.eps[i].retired && s.eps[i].up == wantUp
		}
		if idx, ok := refPickAmong(s, spec, candidate); ok {
			return idx, true
		}
	}
	return 0, false
}

// refLoad and refLighter are the old lexicographic load ranking.
type refLoad struct {
	sessions    int64
	busy, bytes uint64
}

func refLoadOf(st *endpointState) refLoad {
	k := refLoad{sessions: st.placed}
	if st.load != nil {
		k.sessions += int64(st.load.SessionsLive)
		for _, d := range st.load.Devices {
			k.busy += d.BusyNanos
			k.bytes += d.BytesInUse
		}
	}
	return k
}

func refLighter(a, b refLoad) bool {
	if a.sessions != b.sessions {
		return a.sessions < b.sessions
	}
	if a.busy != b.busy {
		return a.busy < b.busy
	}
	return a.bytes < b.bytes
}

func refPickAmong(s *placerState, spec JobSpec, candidate func(int) bool) (int, bool) {
	switch s.policy {
	case RoundRobin:
		for k := 0; k < len(s.eps); k++ {
			i := (s.rr + k) % len(s.eps)
			if candidate(i) {
				s.rr = i + 1
				return i, true
			}
		}
		return 0, false
	case NetworkAware:
		best, found := 0, false
		var bestEst time.Duration
		var bestHas bool
		for i, st := range s.eps {
			if !candidate(i) {
				continue
			}
			est, has := transferEstimate(st, spec)
			better := false
			switch {
			case !found:
				better = true
			case has != bestHas:
				better = has
			case has && est != bestEst:
				better = est < bestEst
			default:
				better = refLighter(refLoadOf(st), refLoadOf(s.eps[best]))
			}
			if better {
				best, found, bestEst, bestHas = i, true, est, has
			}
		}
		return best, found
	case ClassAware:
		best, found := 0, false
		var bestCL protocol.ClassLoad
		var bestHas bool
		for i, st := range s.eps {
			if !candidate(i) {
				continue
			}
			cl, has := classLoadOf(st, spec.Class)
			better := false
			switch {
			case !found:
				better = true
			case has != bestHas:
				better = has
			case has && cl.P99WaitNanos != bestCL.P99WaitNanos:
				better = cl.P99WaitNanos < bestCL.P99WaitNanos
			case has && cl.Sessions != bestCL.Sessions:
				better = cl.Sessions < bestCL.Sessions
			default:
				better = refLighter(refLoadOf(st), refLoadOf(s.eps[best]))
			}
			if better {
				best, found, bestCL, bestHas = i, true, cl, has
			}
		}
		return best, found
	default:
		best, found := 0, false
		for i, st := range s.eps {
			if !candidate(i) {
				continue
			}
			if !found || refLighter(refLoadOf(st), refLoadOf(s.eps[best])) {
				best, found = i, true
			}
		}
		return best, found
	}
}

// refWalk runs the old loop to exhaustion and returns the order it visits
// and the cursor after each step.
func refWalk(s *placerState, spec JobSpec) (order, cursors []int) {
	exclude := make(map[int]bool)
	for {
		idx, ok := refPick(s, spec, exclude)
		if !ok {
			return order, cursors
		}
		exclude[idx] = true
		order = append(order, idx)
		cursors = append(cursors, s.rr)
	}
}

var testLinks = []*netsim.Link{nil, netsim.GigaE(), netsim.TenGigE(), netsim.AHT()}

// randomFleet builds a placer whose endpoints cover every input the
// ranking reads, drawn from ranges narrow enough that ties at every level
// of every key are common.
func randomFleet(rng *rand.Rand, policy Policy) *Placer {
	p := NewPlacer(policy)
	n := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		p.Add(Endpoint{Link: testLinks[rng.Intn(len(testLinks))]})
		st := p.state.eps[i]
		if rng.Intn(3) > 0 { // probed
			st.load = randomLoad(rng)
		}
		st.placed = int64(rng.Intn(3))
		st.up = rng.Intn(3) > 0
		st.retired = rng.Intn(5) == 0
	}
	p.state.rr = rng.Intn(n + 1)
	return p
}

// randomLoad is a probe reply from ranges narrow enough for ties, with the
// class block two times in three.
func randomLoad(rng *rand.Rand) *protocol.StatsReply {
	load := &protocol.StatsReply{SessionsLive: uint32(rng.Intn(3))}
	for d := rng.Intn(3); d > 0; d-- {
		load.Devices = append(load.Devices, protocol.DeviceStats{
			BusyNanos: uint64(rng.Intn(2)), BytesInUse: uint64(rng.Intn(2)),
		})
	}
	if rng.Intn(3) > 0 {
		load.HasClasses = true
		for c := range load.Classes {
			load.Classes[c] = protocol.ClassLoad{Sessions: uint32(rng.Intn(2)), P99WaitNanos: uint64(rng.Intn(2))}
		}
	}
	return load
}

func randomSpec(rng *rand.Rand) JobSpec {
	spec := JobSpec{Class: uint32(rng.Intn(5))} // 4 is out of range: blind
	switch rng.Intn(3) {
	case 1:
		spec.TransferBytes = 1 << 20
	case 2:
		spec.CS, spec.Size = calib.MM, calib.Sizes(calib.MM)[0]
	}
	return spec
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var allPolicies = []Policy{LeastLoaded, RoundRobin, NetworkAware, ClassAware}

// TestRankedWalkMatchesPickWithExclude is the equivalence property: over
// random fleets, for every policy, the ranked walk hands out exactly the
// endpoints the old Pick-with-growing-exclude loop returned, in the same
// order, and leaves the round-robin cursor where that loop left it after
// every step — so a walk that stops early (the session landed) stops with
// the same cursor too. Pick itself must agree with the reference on every
// prefix of the walk taken as its exclude set.
func TestRankedWalkMatchesPickWithExclude(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	for iter := 0; iter < 4000; iter++ {
		policy := allPolicies[iter%len(allPolicies)]
		p := randomFleet(rng, policy)
		spec := randomSpec(rng)
		s := &p.state
		rr0 := s.rr

		want, wantCursors := refWalk(s, spec)

		s.rr = rr0
		var r Ranking
		p.Rank(spec, &r)
		var got []int
		for step := 0; ; step++ {
			idx, ok := r.Next()
			if !ok {
				break
			}
			got = append(got, idx)
			if step < len(wantCursors) && s.rr != wantCursors[step] {
				t.Fatalf("iter %d (%v, rr0=%d): cursor after step %d = %d, want %d", iter, policy, rr0, step, s.rr, wantCursors[step])
			}
		}
		if !equalInts(got, want) {
			t.Fatalf("iter %d (%v, rr0=%d): walk = %v, want %v", iter, policy, rr0, got, want)
		}

		exclude := make(map[int]bool)
		for k := 0; k <= len(want); k++ {
			s.rr = rr0
			wantIdx, wantOK := refPick(s, spec, exclude)
			wantRR := s.rr
			s.rr = rr0
			gotIdx, gotOK := p.Pick(spec, exclude)
			if gotOK != wantOK || (wantOK && gotIdx != wantIdx) || s.rr != wantRR {
				t.Fatalf("iter %d (%v): Pick excluding %v = %d,%v rr %d; want %d,%v rr %d",
					iter, policy, exclude, gotIdx, gotOK, s.rr, wantIdx, wantOK, wantRR)
			}
			if k < len(want) {
				exclude[want[k]] = true
			}
		}
	}
}

// TestFullMarksOnlyDefer holds the full mark to its contract over random
// fleets: marked endpoints move behind every unmarked one, neither group's
// internal order changes, nothing is dropped, and the round-robin cursor
// still ends past the endpoint furthest round the rotation among those
// handed out — where the unmarked walk would have left it.
func TestFullMarksOnlyDefer(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 2000; iter++ {
		policy := allPolicies[iter%len(allPolicies)]
		p := randomFleet(rng, policy)
		spec := randomSpec(rng)
		s := &p.state
		rr0 := s.rr

		plain, plainCursors := refWalk(s, spec)
		pos := make(map[int]int, len(plain))
		for i, idx := range plain {
			pos[idx] = i
		}
		var want, marked []int
		for _, idx := range plain {
			if rng.Intn(3) == 0 {
				p.NoteSpill(idx)
				marked = append(marked, idx)
			} else {
				want = append(want, idx)
			}
		}
		want = append(want, marked...)

		s.rr = rr0
		var r Ranking
		p.Rank(spec, &r)
		var got []int
		furthest := -1
		for {
			idx, ok := r.Next()
			if !ok {
				break
			}
			got = append(got, idx)
			if pos[idx] > furthest {
				furthest = pos[idx]
			}
			if policy == RoundRobin && s.rr != plainCursors[furthest] {
				t.Fatalf("iter %d: cursor %d after handing out %v, want %d", iter, s.rr, got, plainCursors[furthest])
			}
		}
		if !equalInts(got, want) {
			t.Fatalf("iter %d (%v): marked walk = %v, want %v (unmarked order %v, marked %v)", iter, policy, got, want, plain, marked)
		}
	}
}

// noteRandomly applies one random change through the Placer's API — every
// call that can move an endpoint's ranking inputs or the endpoint set, and
// some that cannot.
func noteRandomly(rng *rand.Rand, p *Placer) {
	n := p.Len()
	i := rng.Intn(n)
	switch rng.Intn(10) {
	case 0:
		p.NotePlaced(i)
	case 1, 2:
		p.NoteSpill(i)
	case 3:
		p.NoteRelease(i)
	case 4:
		p.NoteProbe(i, randomLoad(rng), nil)
	case 5:
		p.NoteProbe(i, nil, errors.New("probe timed out"))
	case 6:
		p.NoteFailure(i, errors.New("connection refused"))
	case 7:
		p.NoteMigration(i, 1)
	case 8:
		if n < 16 {
			p.Add(Endpoint{Link: testLinks[rng.Intn(len(testLinks))]})
		}
	case 9:
		if rng.Intn(3) == 0 {
			p.Retire(i)
		}
	}
}

// walkPrefix hands out up to n candidates of a ranking for spec, recording
// the round-robin cursor after each.
func walkPrefix(p *Placer, spec JobSpec, r *Ranking, n int) (order, cursors []int) {
	p.Rank(spec, r)
	for len(order) < n {
		idx, ok := r.Next()
		if !ok {
			break
		}
		order = append(order, idx)
		cursors = append(cursors, p.state.rr)
	}
	return order, cursors
}

// TestKeptRankingMatchesFresh is the reuse property: a Ranking ranked again
// after any sequence of changes made through the Placer's API hands out
// exactly what a zero Ranking would, with the same round-robin cursor
// after every step. Walks stop at random depths, as placements do; each
// spec mostly keeps its own Ranking, as loadgen's classes do, and now and
// then borrows another spec's.
func TestKeptRankingMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for iter := 0; iter < 1500; iter++ {
		policy := allPolicies[iter%len(allPolicies)]
		p := NewPlacer(policy)
		for n := 1 + rng.Intn(8); n > 0; n-- {
			p.Add(Endpoint{Link: testLinks[rng.Intn(len(testLinks))]})
		}
		specs := []JobSpec{randomSpec(rng), randomSpec(rng), randomSpec(rng)}
		kept := make([]Ranking, len(specs))
		for step := 0; step < 30; step++ {
			for k := rng.Intn(4); k > 0; k-- {
				noteRandomly(rng, p)
			}
			k := rng.Intn(len(specs))
			kr := k
			if rng.Intn(4) == 0 {
				kr = rng.Intn(len(kept))
			}
			depth := 1 + rng.Intn(p.Len()+1)
			rr0 := p.state.rr
			var fresh Ranking
			want, wantCursors := walkPrefix(p, specs[k], &fresh, depth)
			p.state.rr = rr0 // the fresh walk moved it; the kept one must move it the same
			got, gotCursors := walkPrefix(p, specs[k], &kept[kr], depth)
			if !equalInts(got, want) || !equalInts(gotCursors, wantCursors) {
				t.Fatalf("iter %d step %d (%v, spec %d): kept walk %v cursors %v, fresh %v cursors %v",
					iter, step, policy, k, got, gotCursors, want, wantCursors)
			}
		}
	}
}

func walkOf(p *Placer, spec JobSpec) []int {
	var r Ranking
	p.Rank(spec, &r)
	var order []int
	for {
		idx, ok := r.Next()
		if !ok {
			return order
		}
		order = append(order, idx)
	}
}

func TestFullMarkLifetime(t *testing.T) {
	p := newTestPlacer(LeastLoaded, 3)
	for i, sessions := range []uint32{0, 1, 2} {
		p.NoteProbe(i, gauges(sessions, 0, 0), nil)
	}
	if got := walkOf(p, JobSpec{}); !equalInts(got, []int{0, 1, 2}) {
		t.Fatalf("unmarked walk = %v", got)
	}

	// A refusal marks the endpoint: it ranks last, behind a busier one and
	// behind a marked-down one, and the spill is counted.
	p.NoteSpill(0)
	p.NoteFailure(1, errors.New("connection refused"))
	if !p.Endpoints()[0].Full || p.Stats().Spills != 1 {
		t.Fatalf("NoteSpill(0): endpoints %+v, stats %+v", p.Endpoints()[0], p.Stats())
	}
	if got := walkOf(p, JobSpec{}); !equalInts(got, []int{2, 1, 0}) {
		t.Fatalf("walk with 0 full and 1 down = %v, want [2 1 0]", got)
	}
	if idx, _ := p.Pick(JobSpec{}, nil); idx != 2 {
		t.Fatalf("Pick = %d, want 2", idx)
	}
	// The mark is advisory: with nothing else left the endpoint is tried.
	if idx, ok := p.Pick(JobSpec{}, map[int]bool{1: true, 2: true}); !ok || idx != 0 {
		t.Fatalf("last-resort Pick = %d, %v; want 0, true", idx, ok)
	}

	// A failed probe leaves the mark, a successful one clears it.
	p.NoteProbe(0, nil, errors.New("probe timed out"))
	if !p.Endpoints()[0].Full {
		t.Fatal("a failed probe cleared the full mark")
	}
	p.NoteProbe(0, gauges(0, 0, 0), nil)
	if p.Endpoints()[0].Full {
		t.Fatal("a successful probe left the full mark")
	}
	if got := walkOf(p, JobSpec{}); !equalInts(got, []int{0, 2, 1}) {
		t.Fatalf("walk after probe = %v, want [0 2 1]", got)
	}

	// So does a released session, without waiting for the probe.
	p.NoteSpill(0)
	p.NoteSpill(2)
	p.NoteRelease(2)
	if eps := p.Endpoints(); !eps[0].Full || eps[2].Full {
		t.Fatalf("after NoteRelease(2): %+v", eps)
	}
	if got := walkOf(p, JobSpec{}); !equalInts(got, []int{2, 1, 0}) {
		t.Fatalf("walk after release = %v, want [2 1 0]", got)
	}

	// A retired endpoint is never returned, marked or not.
	p.Retire(0)
	p.Retire(1)
	if got := walkOf(p, JobSpec{}); !equalInts(got, []int{2}) {
		t.Fatalf("walk over a retired fleet = %v, want [2]", got)
	}
}

// saturatedPlacer is an n-endpoint fleet with every endpoint probed.
func saturatedPlacer(n int) *Placer {
	p := newTestPlacer(LeastLoaded, n)
	for i := 0; i < n; i++ {
		p.NoteProbe(i, &protocol.StatsReply{SessionsLive: uint32(i % 7)}, nil)
	}
	return p
}

func TestPlacementAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := saturatedPlacer(64)
	if n := testing.AllocsPerRun(100, func() { p.Pick(JobSpec{}, nil) }); n != 0 {
		t.Errorf("Pick over 64 probed endpoints: %v allocs, want 0", n)
	}
	var r Ranking
	walk := func() {
		p.Rank(JobSpec{}, &r)
		for {
			if _, ok := r.Next(); !ok {
				return
			}
		}
	}
	walk() // sizes the buffer
	if n := testing.AllocsPerRun(100, walk); n != 0 {
		t.Errorf("full ranked walk with a reused buffer: %v allocs, want 0", n)
	}
	i := 0
	rerank := func() {
		p.NotePlaced(i % 64)
		p.NoteSpill((i + 7) % 64)
		i++
		p.Rank(JobSpec{}, &r)
	}
	if n := testing.AllocsPerRun(100, rerank); n != 0 {
		t.Errorf("kept ranking re-keying two endpoints: %v allocs, want 0", n)
	}
}

// BenchmarkPickSaturated is a placement against a fleet where every daemon
// refuses: rank 48 endpoints and walk to the end, marking each full, the
// work loadgen.place and Pool.open do for one blocked session.
func BenchmarkPickSaturated(b *testing.B) {
	p := saturatedPlacer(48)
	var r Ranking
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Rank(JobSpec{}, &r)
		for {
			idx, ok := r.Next()
			if !ok {
				break
			}
			p.NoteSpill(idx)
		}
	}
}
