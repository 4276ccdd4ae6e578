package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"rcuda/internal/stats"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

// Table II anchors: the small-message model must return exactly the paper's
// interpolated values at the anchor sizes.
func TestGigaESmallMessageAnchors(t *testing.T) {
	l := GigaE()
	cases := map[int64]float64{
		4: 22.2, 8: 22.2, 12: 44.4, 20: 22.4, 52: 23.1, 58: 23.2,
		7856: 233.9, 21490: 338.7,
	}
	for sz, want := range cases {
		approx(t, us(l.SmallMessageTime(sz)), want, 0.05, "GigaE small msg")
	}
}

func TestIB40SmallMessageAnchors(t *testing.T) {
	l := IB40G()
	cases := map[int64]float64{
		4: 27.9, 8: 27.9, 12: 20.0, 20: 27.8, 52: 27.9, 58: 27.9,
		7856: 39.5, 21490: 80.9,
	}
	for sz, want := range cases {
		approx(t, us(l.SmallMessageTime(sz)), want, 0.05, "40GI small msg")
	}
}

// Table III, MM column: a 64 MB copy takes 569.4 ms on GigaE and 46.8 ms on
// 40GI under the bandwidth-only payload model.
func TestPayloadTimeMatchesTableIII(t *testing.T) {
	mm := map[int64][2]float64{ // bytes -> {GigaE ms, 40GI ms}
		64 * MiB:   {569.4, 46.8},
		144 * MiB:  {1281.1, 105.3},
		256 * MiB:  {2277.6, 187.3},
		400 * MiB:  {3558.7, 292.6},
		576 * MiB:  {5124.6, 421.3},
		784 * MiB:  {6975.1, 573.5},
		1024 * MiB: {9110.3, 749.0},
		1296 * MiB: {11530.2, 948.0},
	}
	ge, ib := GigaE(), IB40G()
	for bytes, want := range mm {
		approx(t, ms(ge.PayloadTime(bytes)), want[0], want[0]*0.001, "GigaE payload")
		approx(t, ms(ib.PayloadTime(bytes)), want[1], want[1]*0.002, "40GI payload")
	}
}

// Table III, FFT column (8 MB batch=2048 up to 64 MB batch=16384).
func TestPayloadTimeFFTSizes(t *testing.T) {
	ge, ib := GigaE(), IB40G()
	approx(t, ms(ge.PayloadTime(8*MiB)), 71.2, 0.1, "GigaE 8MB")
	approx(t, ms(ib.PayloadTime(8*MiB)), 5.9, 0.1, "40GI 8MB")
	approx(t, ms(ge.PayloadTime(48*MiB)), 427.0, 0.5, "GigaE 48MB")
	approx(t, ms(ib.PayloadTime(48*MiB)), 35.1, 0.1, "40GI 48MB")
}

// Table V: payload times on the five target networks.
func TestPayloadTimeTargetsMatchTableV(t *testing.T) {
	want := map[string]map[int64]float64{
		"10GE": {64 * MiB: 72.7, 1296 * MiB: 1472.7, 8 * MiB: 9.1},
		"10GI": {64 * MiB: 66.0, 1296 * MiB: 1336.1, 8 * MiB: 8.2},
		"Myr":  {64 * MiB: 85.3, 1296 * MiB: 1728.0, 8 * MiB: 10.7},
		"F-HT": {64 * MiB: 44.4, 1296 * MiB: 898.8, 8 * MiB: 5.5},
		"A-HT": {64 * MiB: 22.2, 1296 * MiB: 449.4, 8 * MiB: 2.8},
	}
	for name, cases := range want {
		l, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for bytes, wantMS := range cases {
			approx(t, ms(l.PayloadTime(bytes)), wantMS, wantMS*0.01+0.05, name+" payload")
		}
	}
}

func TestRegressionsPublished(t *testing.T) {
	f, ok := GigaE().Regression()
	if !ok {
		t.Fatal("GigaE must publish its regression")
	}
	approx(t, f.Eval(64), 8.9*64-0.3, 1e-9, "f(64)")
	g, ok := IB40G().Regression()
	if !ok {
		t.Fatal("40GI must publish its regression")
	}
	approx(t, g.Eval(64), 0.7*64+2.8, 1e-9, "g(64)")
	if _, ok := TenGigE().Regression(); ok {
		t.Fatal("modeled networks have no measured regression")
	}
}

func TestWireTimeGigaEIncludesTCPExcess(t *testing.T) {
	l := GigaE()
	// At 8 MiB (FFT batch 2048) the wire is markedly slower than the
	// bandwidth model — this is the source of the paper's 33.9% FFT
	// cross-validation error.
	wire := ms(l.WireTime(8 * MiB))
	model := ms(l.PayloadTime(8 * MiB))
	if wire-model < 20 || wire-model > 45 {
		t.Fatalf("GigaE 8MiB wire excess = %.1f ms, want 20-45 ms", wire-model)
	}
	// At MM sizes (>= 192 MiB per execution, 64+ MiB per copy) the excess
	// must be small relative to the transfer: the paper's MM fixed times
	// are nearly network-independent.
	wire, model = ms(l.WireTime(256*MiB)), ms(l.PayloadTime(256*MiB))
	if rel := (wire - model) / model; rel > 0.01 {
		t.Fatalf("GigaE 256MiB relative excess = %.3f, want <= 1%%", rel)
	}
}

func TestWireTime40GIMatchesBandwidthModel(t *testing.T) {
	l := IB40G()
	for _, bytes := range []int64{8 * MiB, 64 * MiB, 1296 * MiB} {
		if got, want := l.WireTime(bytes), l.PayloadTime(bytes); got != want {
			t.Fatalf("40GI wire time %v != payload time %v at %d bytes", got, want, bytes)
		}
	}
}

func TestWireTimeMonotoneLargePayloads(t *testing.T) {
	for _, l := range All() {
		prev := time.Duration(0)
		for bytes := int64(1 * MiB); bytes <= 1400*MiB; bytes += 50 * MiB {
			cur := l.WireTime(bytes)
			if cur < prev {
				t.Fatalf("%s: wire time decreased from %v to %v at %d bytes", l.Name(), prev, cur, bytes)
			}
			prev = cur
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"GigaE", "40GI", "10GE", "10GI", "Myr", "F-HT", "A-HT"} {
		l, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if l.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, l.Name())
		}
	}
	if _, err := ByName("token-ring"); err == nil {
		t.Fatal("want error for unknown network")
	}
}

func TestAllOrderingAndCount(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("All() returned %d networks, want 7", len(all))
	}
	wantOrder := []string{"GigaE", "40GI", "10GE", "10GI", "Myr", "F-HT", "A-HT"}
	for i, l := range all {
		if l.Name() != wantOrder[i] {
			t.Fatalf("All()[%d] = %s, want %s", i, l.Name(), wantOrder[i])
		}
	}
}

func TestBandwidthsOrdering(t *testing.T) {
	// Sanity on the published bandwidth hierarchy:
	// Myr < 10GE < 10GI < GigaE*12 < F-HT < A-HT, and 40GI sits between
	// F-HT and A-HT... simply assert the exact published values.
	want := map[string]float64{
		"GigaE": 112.4, "40GI": 1367.1, "10GE": 880, "10GI": 970,
		"Myr": 750, "F-HT": 1442, "A-HT": 2884,
	}
	for name, bw := range want {
		l, _ := ByName(name)
		approx(t, l.Bandwidth(), bw, 1e-9, name+" bandwidth")
	}
}

func TestCharacterized(t *testing.T) {
	if !GigaE().Characterized() || !IB40G().Characterized() {
		t.Fatal("testbed networks must be characterized")
	}
	for _, l := range Targets() {
		if l.Characterized() {
			t.Fatalf("%s should not be characterized", l.Name())
		}
	}
}

func TestNoiseDeterministic(t *testing.T) {
	a := NewNoise(42, 0.01)
	b := NewNoise(42, 0.01)
	for i := 0; i < 100; i++ {
		if a.Perturb(time.Second) != b.Perturb(time.Second) {
			t.Fatal("same seed must produce the same jitter sequence")
		}
	}
}

func TestNoiseNilAndZeroSigma(t *testing.T) {
	var n *Noise
	if n.Perturb(time.Second) != time.Second {
		t.Fatal("nil noise must be pass-through")
	}
	z := NewNoise(1, 0)
	if z.Perturb(time.Second) != time.Second {
		t.Fatal("zero-sigma noise must be pass-through")
	}
}

func TestNoiseBounded(t *testing.T) {
	n := NewNoise(7, 10) // absurd sigma to force clamping
	for i := 0; i < 1000; i++ {
		d := n.Perturb(time.Second)
		if d < time.Second/2 || d > 3*time.Second/2 {
			t.Fatalf("perturbed duration %v escaped the [0.5s, 1.5s] clamp", d)
		}
	}
}

func TestNoisePropertyNonNegative(t *testing.T) {
	f := func(seed int64, millis uint16) bool {
		n := NewNoise(seed, 0.05)
		d := time.Duration(millis) * time.Millisecond
		return n.Perturb(d) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPingPongRecoversBandwidth(t *testing.T) {
	// Run the paper's methodology end to end on the simulated 40GI link:
	// measure large payloads, fit a line, and check the implied bandwidth.
	pp := &PingPong{Link: IB40G(), Noise: NewNoise(1, 0.005)}
	sizes := []int64{8 * MiB, 16 * MiB, 32 * MiB, 64 * MiB, 128 * MiB, 256 * MiB}
	pts := pp.MeasureLarge(sizes, 100)
	fit, err := FitLarge(pts)
	if err != nil {
		t.Fatal(err)
	}
	bw := EffectiveBandwidth(fit)
	if math.Abs(bw-1367.1) > 40 {
		t.Fatalf("recovered bandwidth %.1f MB/s, want ~1367.1", bw)
	}
	if fit.R < 0.999 {
		t.Fatalf("correlation %.5f, paper reports 1.0", fit.R)
	}
}

func TestPingPongGigaERecoversBandwidth(t *testing.T) {
	pp := &PingPong{Link: GigaE(), Noise: NewNoise(2, 0.005)}
	sizes := []int64{64 * MiB, 128 * MiB, 256 * MiB, 512 * MiB, 1024 * MiB}
	pts := pp.MeasureLarge(sizes, 50)
	fit, err := FitLarge(pts)
	if err != nil {
		t.Fatal(err)
	}
	bw := EffectiveBandwidth(fit)
	if math.Abs(bw-112.4) > 5 {
		t.Fatalf("recovered bandwidth %.1f MB/s, want ~112.4", bw)
	}
}

func TestPingPongSmallAverages(t *testing.T) {
	pp := &PingPong{Link: GigaE(), Noise: NewNoise(3, 0.01)}
	pts := pp.MeasureSmall([]int64{4, 8, 20}, 250)
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	// The 250-run average must land near the model's 22.2-22.4 µs.
	for _, p := range pts {
		if p.Y < 21 || p.Y > 24 {
			t.Fatalf("small-message average %v µs at %v bytes out of range", p.Y, p.X)
		}
	}
}

func TestNagleStallsSmallMessages(t *testing.T) {
	withNagle := &PingPong{Link: GigaE(), Nagle: true}
	without := &PingPong{Link: GigaE()}
	d := withNagle.RoundTrip(8) - without.RoundTrip(8)
	if d < 30*time.Millisecond {
		t.Fatalf("Nagle stall on 8-byte message = %v, want >= 30 ms", d)
	}
	// Above one MSS Nagle does not apply.
	if withNagle.RoundTrip(4096) != without.RoundTrip(4096) {
		t.Fatal("Nagle must not affect payloads above one MSS")
	}
}

func TestFitLargeTooFewPoints(t *testing.T) {
	if _, err := FitLarge(nil); err == nil {
		t.Fatal("want error for no points")
	}
}

func TestEffectiveBandwidthDegenerate(t *testing.T) {
	// Flat or negative slope yields zero bandwidth rather than dividing
	// by zero.
	if bw := EffectiveBandwidth(stats.Linear{Slope: 0, Intercept: 5}); bw != 0 {
		t.Fatalf("flat fit bandwidth = %v, want 0", bw)
	}
	if bw := EffectiveBandwidth(stats.Linear{Slope: -1}); bw != 0 {
		t.Fatalf("negative-slope fit bandwidth = %v, want 0", bw)
	}
	approx(t, EffectiveBandwidth(stats.Linear{Slope: 8.9}), 112.36, 0.01, "GigaE slope to bandwidth")
}

func TestCustomNetwork(t *testing.T) {
	l, err := Custom("100GbE", 11000)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "100GbE" || l.Characterized() {
		t.Fatalf("custom link %v", l)
	}
	// Payload arithmetic follows the bandwidth exactly.
	approx(t, ms(l.PayloadTime(11000*MiB)), 1000, 0.5, "custom payload time")
	if l.WireTime(64*MiB) != l.PayloadTime(64*MiB) {
		t.Fatal("custom links have no TCP excess")
	}
	if _, err := Custom("", 1); err == nil {
		t.Fatal("empty name must fail")
	}
	if _, err := Custom("x", 0); err == nil {
		t.Fatal("zero bandwidth must fail")
	}
	if _, err := Custom("x", -3); err == nil {
		t.Fatal("negative bandwidth must fail")
	}
}
