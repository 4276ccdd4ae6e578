package faults

import (
	"reflect"
	"testing"
	"time"
)

// TestSeededPlanReplaysIdentically is the determinism contract behind every
// chaos test: two plans built from the same seed and config must decide the
// identical fault sequence, event for event.
func TestSeededPlanReplaysIdentically(t *testing.T) {
	cfg := Config{
		ResetRate:        0.02,
		TruncateRate:     0.02,
		StallRate:        0.02,
		PartialWriteRate: 0.02,
		LatencyRate:      0.05,
	}
	drive := func(seed int64) []Event {
		p := Seeded(seed, cfg)
		for i := 0; i < 5000; i++ {
			dir := DirSend
			if i%2 == 1 {
				dir = DirRecv
			}
			p.Next(dir)
		}
		return p.History()
	}
	a, b := drive(42), drive(42)
	if len(a) == 0 {
		t.Fatal("seeded plan injected nothing in 5000 ops at ~13% total rate")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different histories:\n a %v\n b %v", a[:min(5, len(a))], b[:min(5, len(b))])
	}
	if c := drive(43); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical histories")
	}
}

// TestSeededPlanRatesRoughlyHold sanity-checks the per-kind rates over a
// long run so a misordered cumulative comparison cannot slip through.
func TestSeededPlanRatesRoughlyHold(t *testing.T) {
	const n = 20000
	cfg := Config{ResetRate: 0.01, LatencyRate: 0.10}
	p := Seeded(7, cfg)
	for i := 0; i < n; i++ {
		p.Next(DirSend)
	}
	counts := make(map[Kind]int64)
	for _, e := range p.History() {
		counts[e.Kind]++
	}
	if got := counts[KindReset]; got < n/400 || got > n/25 {
		t.Fatalf("reset count %d wildly off a 1%% rate over %d ops", got, n)
	}
	if got := counts[KindLatency]; got < n/20 || got > n/5 {
		t.Fatalf("latency count %d wildly off a 10%% rate over %d ops", got, n)
	}
	if counts[KindTruncate] != 0 || counts[KindStall] != 0 {
		t.Fatalf("kinds with zero rate fired: %v", counts)
	}
	if p.Ops() != n {
		t.Fatalf("Ops() = %d, want %d", p.Ops(), n)
	}
}

// TestScriptedPlanFiresExactlyWhereTold pins injections to operation
// indices and directions and checks nothing else fires.
func TestScriptedPlanFiresExactlyWhereTold(t *testing.T) {
	p := Script(
		Injection{Op: 2, Dir: DirSend, Decision: Decision{Kind: KindReset}},
		Injection{Op: 3, Dir: DirSend, Decision: Decision{Kind: KindTruncate}}, // wrong dir: op 3 is a recv
		Injection{Op: 5, Dir: DirAny, Decision: Decision{Kind: KindStall, Delay: time.Millisecond}},
	)
	dirs := []Dir{DirSend, DirRecv, DirSend, DirRecv, DirSend, DirRecv}
	var got []Kind
	for _, dir := range dirs {
		got = append(got, p.Next(dir).Kind)
	}
	want := []Kind{KindNone, KindNone, KindReset, KindNone, KindNone, KindStall}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decisions %v, want %v", got, want)
	}
	if inj := p.Injected(); inj != 2 {
		t.Fatalf("Injected() = %d, want 2", inj)
	}
	hist := p.History()
	if len(hist) != 2 || hist[0].Op != 2 || hist[1].Op != 5 {
		t.Fatalf("history %v, want ops 2 and 5", hist)
	}
}

// TestNilPlanIsClean lets connections treat "no plan" as "no faults".
func TestNilPlanIsClean(t *testing.T) {
	var p *Plan
	if d := p.Next(DirSend); d.Kind != KindNone {
		t.Fatalf("nil plan decided %v", d.Kind)
	}
	if p.Injected() != 0 || p.Ops() != 0 || len(p.History()) != 0 {
		t.Fatal("nil plan reported activity")
	}
}

// TestKeepForStaysShort checks the truncation point is always inside the
// frame regardless of how the decision was parameterized.
func TestKeepForStaysShort(t *testing.T) {
	cases := []struct {
		d    Decision
		n    int
		want int
	}{
		{Decision{KeepBytes: 4}, 10, 4},
		{Decision{KeepBytes: 10}, 10, 9},
		{Decision{KeepBytes: 99}, 10, 9},
		{Decision{KeepFrac: 0.5}, 10, 5},
		{Decision{}, 10, 5},
		{Decision{}, 1, 0},
		{Decision{}, 0, 0},
		{Decision{KeepFrac: 1.5}, 8, 4},
	}
	for _, c := range cases {
		if got := c.d.KeepFor(c.n); got != c.want {
			t.Errorf("KeepFor(%d) with %+v = %d, want %d", c.n, c.d, got, c.want)
		}
	}
}
