package broker

import (
	"fmt"
	"time"

	"rcuda/internal/perfmodel"
	"rcuda/internal/protocol"
)

// Policy selects how the pool places sessions on endpoints. The names
// mirror package cluster's scheduling policies, so a live deployment can be
// configured with the same vocabulary the offline sizing study uses.
type Policy int

// Placement policies.
const (
	// LeastLoaded places each session on the endpoint with the lightest
	// live load, ranked by the last probe's gauges: attached sessions
	// first (plus any sessions this pool placed since the probe), then
	// cumulative device busy time, then memory in use, then endpoint
	// order. With sequential submission this reproduces the cluster
	// simulator's least-loaded list scheduling.
	LeastLoaded Policy = iota
	// RoundRobin cycles through the live endpoints regardless of load.
	RoundRobin
	// NetworkAware ranks endpoints by the estimated time to move the
	// job's data over each endpoint's declared interconnect — the
	// perfmodel transfer estimate for a calibrated case study, or the raw
	// payload time for a declared byte volume — breaking ties by load.
	// Endpoints with no declared link rank last.
	NetworkAware
	// ClassAware ranks endpoints by scheduling headroom in the job's
	// declared class (JobSpec.Class; unspecified reads as batch): lowest
	// p99 queue wait for the class in the endpoint's last probe first,
	// then fewest sessions of the class, then overall load. Endpoints
	// whose daemons do not run the scheduler (no class block in the probe
	// reply) rank after those that do, by overall load.
	ClassAware
)

// String implements fmt.Stringer with the cluster package's names.
func (p Policy) String() string {
	switch p {
	case LeastLoaded:
		return "least-loaded"
	case RoundRobin:
		return "round-robin"
	case NetworkAware:
		return "network-aware"
	case ClassAware:
		return "class-aware"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps a policy name (as printed by String) to its value.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "least-loaded":
		return LeastLoaded, nil
	case "round-robin":
		return RoundRobin, nil
	case "network-aware":
		return NetworkAware, nil
	case "class-aware":
		return ClassAware, nil
	default:
		return 0, fmt.Errorf("broker: unknown policy %q", s)
	}
}

// transferEstimate is the network-aware policy's score: how long moving the
// job's declared data over this endpoint's link would take. ok is false
// when the endpoint declares no link or the spec declares no volume.
func transferEstimate(st *endpointState, spec JobSpec) (time.Duration, bool) {
	if st.ep.Link == nil {
		return 0, false
	}
	if spec.Size > 0 {
		return perfmodel.TotalTransferTime(st.ep.Link, spec.CS, spec.Size), true
	}
	if spec.TransferBytes > 0 {
		return st.ep.Link.PayloadTime(spec.TransferBytes), true
	}
	return 0, false
}

// classLoadOf extracts the endpoint's probe row for the job's class. ok is
// false when the endpoint has no probe yet or its daemon answered without
// the class block (scheduler off or pre-scheduler build).
func classLoadOf(st *endpointState, class uint32) (protocol.ClassLoad, bool) {
	if st.load == nil || !st.load.HasClasses {
		return protocol.ClassLoad{}, false
	}
	if class == protocol.SchedClassUnspecified {
		class = protocol.SchedClassBatch
	}
	if class < protocol.SchedClassRealtime || class > protocol.SchedClassBestEffort {
		return protocol.ClassLoad{}, false
	}
	return st.load.Classes[class-1], true
}

// candidate is one endpoint of a placement's order. Candidates compare by
// tier — endpoints marked full after every unmarked one, then marked-up
// before marked-down — then by key, then by endpoint index. Both marks are
// advisory: a marked endpoint ranks late but is still handed out when
// nothing better is left, because the alternative is refusing outright on
// possibly stale data.
type candidate struct {
	idx  int
	tier uint8
	// key holds the lexicographic terms, most significant first. 0-2 are
	// the policy's own: NetworkAware {unranked, transfer estimate},
	// ClassAware {blind, class p99 wait, class sessions}, RoundRobin
	// {position in the rotation}, LeastLoaded none. 3-5 are the load every
	// policy but RoundRobin falls back on: attached sessions plus those
	// placed since the probe, cumulative device busy time, memory in use.
	key [6]uint64
}

const (
	tierDown uint8 = 1 << iota
	tierFull
)

// before is the strict total order candidates are handed out in.
func (a *candidate) before(b *candidate) bool {
	if a.tier != b.tier {
		return a.tier < b.tier
	}
	for i := range a.key {
		if a.key[i] != b.key[i] {
			return a.key[i] < b.key[i]
		}
	}
	return a.idx < b.idx
}

// keyed fills c with endpoint i's tier and key for spec under the policy.
// The caller holds the placer mutex.
func (s *placerState) keyed(c *candidate, i int, spec JobSpec) {
	st := s.eps[i]
	*c = candidate{idx: i}
	if !st.up {
		c.tier |= tierDown
	}
	if st.full {
		c.tier |= tierFull
	}
	k := &c.key
	switch s.policy {
	case RoundRobin:
		// Distance ahead of the cursor; load plays no part.
		n := len(s.eps)
		k[0] = uint64((i - s.rr%n + n) % n)
		return
	case NetworkAware:
		if est, ok := transferEstimate(st, spec); ok {
			k[1] = uint64(est)
		} else {
			k[0] = 1 // a linked endpoint beats an unranked one
		}
	case ClassAware:
		if cl, ok := classLoadOf(st, spec.Class); ok {
			k[1], k[2] = cl.P99WaitNanos, uint64(cl.Sessions)
		} else {
			k[0] = 1 // a scheduler-reporting endpoint beats a blind one
		}
	}
	k[3] = uint64(st.placed)
	if st.load != nil {
		k[3] += uint64(st.load.SessionsLive)
		for _, d := range st.load.Devices {
			k[4] += d.BusyNanos
			k[5] += d.BytesInUse
		}
	}
}

// pick returns the first candidate of the order among the non-retired
// endpoints not in exclude, moving the round-robin cursor past it.
func (s *placerState) pick(spec JobSpec, exclude map[int]bool) (int, bool) {
	var c, best candidate
	found := false
	for i, st := range s.eps {
		if st.retired || len(exclude) > 0 && exclude[i] {
			continue
		}
		s.keyed(&c, i, spec)
		if !found || c.before(&best) {
			best, found = c, true
		}
	}
	if found && s.policy == RoundRobin {
		s.rr = best.idx + 1
	}
	return best.idx, found
}

// rank brings r up to date for spec. A Ranking last ranked for this
// placer, spec and endpoint set, at most journalLen changes ago, replays
// the journal: each endpoint stamped since then, and not again later, is
// re-keyed and moved to its new place among the rest, which are still in
// order. Anything else ranks afresh: a different placer, spec or endpoint
// set (a zero Ranking is the first case), a Ranking the journal no longer
// reaches, and every Rank under RoundRobin, whose keys are positions
// relative to the cursor, which every walk moves, and where a markdown
// moves where the down endpoints start.
func (s *placerState) rank(p *Placer, spec JobSpec, r *Ranking) {
	fresh := r.pl != p || r.gen != s.gen || r.spec != spec || s.policy == RoundRobin ||
		s.stamp-r.stamp > journalLen
	since := r.stamp
	r.pl, r.gen, r.stamp, r.spec = p, s.gen, s.stamp, spec
	r.next, r.cursor = 0, -1
	if !fresh {
		for stamp := since + 1; stamp <= s.stamp; stamp++ {
			// A retired endpoint is not in the order; it can still be noted.
			i := int(s.journal[stamp%journalLen])
			if st := s.eps[i]; st.changed == stamp && !st.retired {
				r.move(s, i, spec)
			}
		}
		return
	}
	n := len(s.eps)
	if cap(r.keys) < n {
		places := make([]int32, 2*n) // order and at, in one allocation
		r.keys, r.order, r.at = make([]candidate, n), places[:0:n], places[n:]
	}
	r.keys, r.order, r.at = r.keys[:n], r.order[:0], r.at[:n]
	for i, st := range s.eps {
		if !st.retired {
			r.order = append(r.order, int32(i))
			s.keyed(&r.keys[i], i, spec)
		}
	}
	if s.policy == RoundRobin {
		r.cursor = 0
		s.orderRoundRobin(r.keys, r.order)
	}
	for k := range r.order {
		// Binary insertion: places 0..k-1 are in order.
		i := r.order[k]
		at := r.search(0, k, &r.keys[i])
		copy(r.order[at+1:k+1], r.order[at:k])
		r.order[at] = i
	}
	for k, i := range r.order {
		r.at[i] = int32(k)
	}
}

// search returns the first place in lo..hi-1 of the order whose candidate
// does not come before c, hi if there is none.
func (r *Ranking) search(lo, hi int, c *candidate) int {
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); r.keys[r.order[m]].before(c) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// move re-keys endpoint i and moves it from its place in the order to its
// place under the new key among the others, which are in order.
func (r *Ranking) move(s *placerState, i int, spec JobSpec) {
	c := &r.keys[i]
	s.keyed(c, i, spec)
	from, to := int(r.at[i]), int(r.at[i])
	switch {
	case from > 0 && c.before(&r.keys[r.order[from-1]]):
		to = r.search(0, from-1, c)
		copy(r.order[to+1:from+1], r.order[to:from])
	case from+1 < len(r.order) && r.keys[r.order[from+1]].before(c):
		to = r.search(from+2, len(r.order), c) - 1
		copy(r.order[from:to], r.order[from+1:to+1])
	default:
		return
	}
	r.order[to] = int32(i)
	for k := min(from, to); k <= max(from, to); k++ {
		r.at[r.order[k]] = int32(k)
	}
}

// orderRoundRobin turns the cyclic positions keyed computed into the
// order a loop of picks visits: each pick leaves the cursor just past the
// endpoint it returned, so once the up endpoints are used up the cursor
// sits after the last of them and the down endpoints follow cyclically
// from there. Positions become absolute — ups 0..n-1, downs n..2n-1 — so
// Next can tell how far round a handed-out candidate lies.
func (s *placerState) orderRoundRobin(keys []candidate, order []int32) {
	n := len(s.eps)
	start, far := s.rr, uint64(0)
	for _, i := range order {
		if c := &keys[i]; c.tier&tierDown == 0 && c.key[0] >= far {
			start, far = c.idx+1, c.key[0]
		}
	}
	for _, i := range order {
		if c := &keys[i]; c.tier&tierDown != 0 {
			c.key[0] = uint64(n + (c.idx-start%n+n)%n)
		}
	}
}
