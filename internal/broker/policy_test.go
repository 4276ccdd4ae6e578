package broker

import (
	"errors"
	"reflect"
	"testing"

	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
)

// gauges builds a probe reply with the given load signal.
func gauges(sessions uint32, busy, bytes uint64) *protocol.StatsReply {
	return &protocol.StatsReply{
		SessionsLive: sessions,
		Devices:      []protocol.DeviceStats{{BusyNanos: busy, BytesInUse: bytes}},
	}
}

// newTestPlacer builds a placer over n named, link-less endpoints.
func newTestPlacer(policy Policy, n int) *Placer {
	p := NewPlacer(policy)
	for i := 0; i < n; i++ {
		p.Add(Endpoint{})
	}
	return p
}

func TestLeastLoadedTieBreaking(t *testing.T) {
	cases := []struct {
		name  string
		loads []*protocol.StatsReply
		want  int
	}{
		{
			name:  "fewest sessions wins",
			loads: []*protocol.StatsReply{gauges(3, 0, 0), gauges(1, 0, 0), gauges(2, 0, 0)},
			want:  1,
		},
		{
			name:  "sessions tie, least busy wins",
			loads: []*protocol.StatsReply{gauges(2, 900, 0), gauges(2, 100, 0), gauges(2, 500, 0)},
			want:  1,
		},
		{
			name:  "sessions and busy tie, fewest bytes wins",
			loads: []*protocol.StatsReply{gauges(1, 50, 4096), gauges(1, 50, 1024), gauges(1, 50, 2048)},
			want:  1,
		},
		{
			name:  "full tie, registration order wins",
			loads: []*protocol.StatsReply{gauges(1, 50, 64), gauges(1, 50, 64), gauges(1, 50, 64)},
			want:  0,
		},
		{
			name:  "unprobed endpoint counts as empty",
			loads: []*protocol.StatsReply{gauges(1, 0, 0), nil, gauges(2, 0, 0)},
			want:  1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newTestPlacer(LeastLoaded, len(tc.loads))
			for i, l := range tc.loads {
				if l != nil {
					p.NoteProbe(i, l, nil)
				}
			}
			idx, ok := p.Pick(JobSpec{}, nil)
			if !ok || idx != tc.want {
				t.Fatalf("Pick = %d, %v; want %d", idx, ok, tc.want)
			}
		})
	}
}

func TestLeastLoadedStampedeGuard(t *testing.T) {
	p := newTestPlacer(LeastLoaded, 2)
	p.NoteProbe(0, gauges(0, 0, 0), nil)
	p.NoteProbe(1, gauges(2, 0, 0), nil)

	// Between probes, each placement on the idle server counts against it,
	// so a burst spreads out instead of stampeding server 0. (The third
	// pick ties at two sessions apiece and registration order keeps it on
	// server 0; the fourth overtakes.)
	for i, want := range []int{0, 0, 0, 1} {
		idx, ok := p.Pick(JobSpec{}, nil)
		if !ok || idx != want {
			t.Fatalf("pick %d = %d, %v; want %d", i, idx, ok, want)
		}
		p.NotePlaced(idx)
	}

	// A fresh probe resets the guard: the gauges speak again.
	p.NoteProbe(0, gauges(0, 0, 0), nil)
	if idx, _ := p.Pick(JobSpec{}, nil); idx != 0 {
		t.Fatalf("post-probe pick = %d, want 0", idx)
	}
}

func TestRoundRobinCyclesAndExcludes(t *testing.T) {
	p := newTestPlacer(RoundRobin, 3)
	var got []int
	for i := 0; i < 6; i++ {
		idx, ok := p.Pick(JobSpec{}, nil)
		if !ok {
			t.Fatalf("pick %d failed", i)
		}
		got = append(got, idx)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle = %v, want %v", got, want)
		}
	}

	// Excluded endpoints are skipped without derailing the cursor.
	if idx, _ := p.Pick(JobSpec{}, map[int]bool{0: true}); idx != 1 {
		t.Fatalf("exclusion pick = %d, want 1", idx)
	}
	// All excluded: no pick.
	if _, ok := p.Pick(JobSpec{}, map[int]bool{0: true, 1: true, 2: true}); ok {
		t.Fatal("pick succeeded with every endpoint excluded")
	}
}

func TestNetworkAwareRanking(t *testing.T) {
	p := NewPlacer(NetworkAware)
	p.Add(Endpoint{Name: "slow", Link: netsim.GigaE()})
	p.Add(Endpoint{Name: "fast", Link: netsim.AHT()})
	p.Add(Endpoint{Name: "unlinked"})
	spec := JobSpec{TransferBytes: 64 << 20}

	// The fastest declared link wins.
	if idx, _ := p.Pick(spec, nil); idx != 1 {
		t.Fatalf("pick = %d, want 1 (fast link)", idx)
	}
	// A linked endpoint beats an unlinked one even when slower.
	if idx, _ := p.Pick(spec, map[int]bool{1: true}); idx != 0 {
		t.Fatalf("pick = %d, want 0 (slow but linked)", idx)
	}
	// The unlinked endpoint is still usable as a last resort.
	if idx, _ := p.Pick(spec, map[int]bool{0: true, 1: true}); idx != 2 {
		t.Fatalf("pick = %d, want 2 (unlinked fallback)", idx)
	}
}

func TestNetworkAwareEstimateTieBreaksByLoad(t *testing.T) {
	p := NewPlacer(NetworkAware)
	p.Add(Endpoint{Name: "a", Link: netsim.TenGigE()})
	p.Add(Endpoint{Name: "b", Link: netsim.TenGigE()})
	p.NoteProbe(0, gauges(5, 0, 0), nil)
	p.NoteProbe(1, gauges(1, 0, 0), nil)
	// Identical links → identical estimates → the lighter endpoint wins.
	if idx, _ := p.Pick(JobSpec{TransferBytes: 1 << 20}, nil); idx != 1 {
		t.Fatalf("pick = %d, want 1 (lighter load on tied links)", idx)
	}
	// With no declared volume the estimate is unavailable for everyone and
	// the ranking likewise degrades to load.
	if idx, _ := p.Pick(JobSpec{}, nil); idx != 1 {
		t.Fatalf("no-volume pick = %d, want 1", idx)
	}
}

// classGauges builds a probe reply carrying the per-class block:
// rows[i] is (sessions, p99 wait nanos) for wire class i+1.
func classGauges(sessions uint32, rows [3][2]uint64) *protocol.StatsReply {
	r := &protocol.StatsReply{
		SessionsLive: sessions,
		Devices:      []protocol.DeviceStats{{}},
		HasClasses:   true,
	}
	for i, row := range rows {
		r.Classes[i] = protocol.ClassLoad{Sessions: uint32(row[0]), P99WaitNanos: row[1]}
	}
	return r
}

func TestClassAwareRanking(t *testing.T) {
	p := newTestPlacer(ClassAware, 3)
	// Endpoint 0: calm realtime row but crowded batch; endpoint 1 the
	// reverse; endpoint 2 reports no class block (scheduler off).
	p.NoteProbe(0, classGauges(4, [3][2]uint64{{1, 100}, {5, 9_000_000}, {0, 0}}), nil)
	p.NoteProbe(1, classGauges(4, [3][2]uint64{{3, 7_000_000}, {1, 200}, {0, 0}}), nil)
	p.NoteProbe(2, gauges(0, 0, 0), nil)

	// A realtime job goes where realtime p99 wait is lowest.
	if idx, _ := p.Pick(JobSpec{Class: protocol.SchedClassRealtime}, nil); idx != 0 {
		t.Fatalf("realtime pick = %d, want 0", idx)
	}
	// A batch job (and the unspecified default) goes the other way.
	if idx, _ := p.Pick(JobSpec{Class: protocol.SchedClassBatch}, nil); idx != 1 {
		t.Fatalf("batch pick = %d, want 1", idx)
	}
	if idx, _ := p.Pick(JobSpec{}, nil); idx != 1 {
		t.Fatalf("unspecified pick = %d, want 1 (batch default)", idx)
	}
	// A scheduler-reporting endpoint beats a blind one even when the blind
	// one is idle; the blind one remains a last resort.
	if idx, _ := p.Pick(JobSpec{Class: protocol.SchedClassRealtime}, map[int]bool{0: true}); idx != 1 {
		t.Fatalf("realtime spill pick = %d, want 1", idx)
	}
	if idx, _ := p.Pick(JobSpec{Class: protocol.SchedClassRealtime}, map[int]bool{0: true, 1: true}); idx != 2 {
		t.Fatalf("last-resort pick = %d, want 2", idx)
	}
}

func TestClassAwareTieBreaks(t *testing.T) {
	p := newTestPlacer(ClassAware, 2)
	// Equal p99 wait: fewer sessions of the class wins.
	p.NoteProbe(0, classGauges(2, [3][2]uint64{{4, 500}, {0, 0}, {0, 0}}), nil)
	p.NoteProbe(1, classGauges(2, [3][2]uint64{{1, 500}, {0, 0}, {0, 0}}), nil)
	if idx, _ := p.Pick(JobSpec{Class: protocol.SchedClassRealtime}, nil); idx != 1 {
		t.Fatalf("session tiebreak pick = %d, want 1", idx)
	}
	// Full class tie: overall load decides, including the stampede guard.
	p.NoteProbe(0, classGauges(1, [3][2]uint64{{1, 500}, {0, 0}, {0, 0}}), nil)
	p.NoteProbe(1, classGauges(5, [3][2]uint64{{1, 500}, {0, 0}, {0, 0}}), nil)
	if idx, _ := p.Pick(JobSpec{Class: protocol.SchedClassRealtime}, nil); idx != 0 {
		t.Fatalf("load tiebreak pick = %d, want 0", idx)
	}
	// No probes at all: the policy still places (registration order).
	blind := newTestPlacer(ClassAware, 2)
	if idx, ok := blind.Pick(JobSpec{Class: protocol.SchedClassRealtime}, nil); !ok || idx != 0 {
		t.Fatalf("unprobed pick = %d, %v; want 0, true", idx, ok)
	}
}

func TestPickPrefersUpFallsBackToDown(t *testing.T) {
	p := newTestPlacer(LeastLoaded, 2)
	p.NoteProbe(0, gauges(0, 0, 0), nil)
	p.NoteProbe(1, gauges(9, 0, 0), nil)
	p.NoteFailure(0, errors.New("connection refused"))

	// The loaded-but-up endpoint beats the idle-but-down one.
	if idx, _ := p.Pick(JobSpec{}, nil); idx != 1 {
		t.Fatalf("pick = %d, want 1 (up beats down)", idx)
	}
	// When every up endpoint is excluded, a markdown is only advisory.
	if idx, ok := p.Pick(JobSpec{}, map[int]bool{1: true}); !ok || idx != 0 {
		t.Fatalf("fallback pick = %d, %v; want 0, true", idx, ok)
	}
}

func TestRetireExcludesButKeepsSlot(t *testing.T) {
	p := newTestPlacer(LeastLoaded, 3)
	p.NoteProbe(1, gauges(0, 0, 0), nil) // idle: would win every pick
	p.Retire(1)
	p.Retire(1) // idempotent

	if idx, _ := p.Pick(JobSpec{}, nil); idx == 1 {
		t.Fatal("picked a retired endpoint")
	}
	if got := p.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3 (slots are stable)", got)
	}
	if s := p.Stats(); s.Retirements != 1 {
		t.Fatalf("Retirements = %d, want 1", s.Retirements)
	}
	eps := p.Endpoints()
	if !eps[1].Retired || eps[0].Retired || eps[2].Retired {
		t.Fatalf("Endpoints retired flags wrong: %+v", eps)
	}
	// Retiring everything leaves nothing to pick.
	p.Retire(0)
	p.Retire(2)
	if _, ok := p.Pick(JobSpec{}, nil); ok {
		t.Fatal("pick succeeded on a fully retired placer")
	}
}

func TestNewRejectsEndpointWithoutDial(t *testing.T) {
	if p, err := New([]Endpoint{{Name: "a"}}); err == nil {
		p.Close()
		t.Fatal("New accepted an endpoint with no Dial")
	}
}

// TestPlacerKeepsNoProbeReply: NoteProbe copies the gauges it ranks on, so
// a caller that reuses one reply for every endpoint — as loadgen's probe
// tick does — and overwrites it, device rows included, after each call
// changes neither Endpoints nor the next walk of any policy.
func TestPlacerKeepsNoProbeReply(t *testing.T) {
	loads := []*protocol.StatsReply{
		classGauges(5, [3][2]uint64{{2, 900}, {4, 800}, {1, 700}}),
		gauges(3, 20, 10),
		classGauges(1, [3][2]uint64{{0, 100}, {1, 200}, {0, 300}}),
	}
	specs := []JobSpec{{}, {Class: protocol.SchedClassRealtime}, {Class: protocol.SchedClassBestEffort}}
	for _, policy := range allPolicies {
		fresh, reused := newTestPlacer(policy, len(loads)), newTestPlacer(policy, len(loads))
		reply := &protocol.StatsReply{}
		for i, load := range loads {
			fresh.NoteProbe(i, load, nil)
			devices := append(reply.Devices[:0], load.Devices...)
			*reply = *load
			reply.Devices = devices
			reused.NoteProbe(i, reply, nil)
			*reply = protocol.StatsReply{SessionsLive: 99, SessionsParked: 99, Devices: reply.Devices, HasClasses: true}
			for d := range reply.Devices {
				reply.Devices[d] = protocol.DeviceStats{BusyNanos: 99, BytesInUse: 99}
			}
			for c := range reply.Classes {
				reply.Classes[c] = protocol.ClassLoad{Sessions: 99, P99WaitNanos: 99}
			}
		}
		if got, want := reused.Endpoints(), fresh.Endpoints(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: Endpoints after the reply was overwritten = %+v, want %+v", policy, got, want)
		}
		for _, spec := range specs {
			if got, want := walkOf(reused, spec), walkOf(fresh, spec); !equalInts(got, want) {
				t.Errorf("%v, class %d: walk after the reply was overwritten = %v, want %v", policy, spec.Class, got, want)
			}
		}
	}
}
