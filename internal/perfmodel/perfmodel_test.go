package perfmodel

import (
	"math"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/raceflag"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

// Table III: per-copy estimated transfer times on the testbed networks.
func TestTransferTimeReproducesTableIII(t *testing.T) {
	ge, ib := netsim.GigaE(), netsim.IB40G()
	approx(t, ms(TransferTime(ge, calib.MM, 4096)), 569.4, 0.6, "MM 4096 GigaE")
	approx(t, ms(TransferTime(ib, calib.MM, 4096)), 46.8, 0.1, "MM 4096 40GI")
	approx(t, ms(TransferTime(ge, calib.MM, 18432)), 11530.2, 12, "MM 18432 GigaE")
	approx(t, ms(TransferTime(ib, calib.MM, 18432)), 948.0, 1, "MM 18432 40GI")
	approx(t, ms(TransferTime(ge, calib.FFT, 2048)), 71.2, 0.1, "FFT 2048 GigaE")
	approx(t, ms(TransferTime(ib, calib.FFT, 16384)), 46.8, 0.1, "FFT 16384 40GI")
}

// Table V: per-copy estimated transfer times on the five target networks.
func TestTransferTimeReproducesTableV(t *testing.T) {
	cases := []struct {
		net  string
		cs   calib.CaseStudy
		size int
		want float64
	}{
		{"10GE", calib.MM, 4096, 72.7},
		{"10GI", calib.MM, 8192, 263.9},
		{"Myr", calib.MM, 12288, 768.0},
		{"F-HT", calib.MM, 16384, 710.1},
		{"A-HT", calib.MM, 18432, 449.4},
		{"10GE", calib.FFT, 2048, 9.1},
		{"10GI", calib.FFT, 8192, 33.0},
		{"Myr", calib.FFT, 12288, 64.0},
		{"F-HT", calib.FFT, 16384, 44.4},
		{"A-HT", calib.FFT, 16384, 22.2},
	}
	for _, c := range cases {
		link, err := netsim.ByName(c.net)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, ms(TransferTime(link, c.cs, c.size)), c.want, c.want*0.01+0.06,
			c.net+" "+c.cs.String())
	}
}

func TestTotalTransferMultiplier(t *testing.T) {
	ge := netsim.GigaE()
	if TotalTransferTime(ge, calib.MM, 4096) != 3*TransferTime(ge, calib.MM, 4096) {
		t.Fatal("MM multiplies by 3")
	}
	if TotalTransferTime(ge, calib.FFT, 2048) != 2*TransferTime(ge, calib.FFT, 2048) {
		t.Fatal("FFT multiplies by 2")
	}
}

// TestTotalTransferTimeAllocatesNothing: the network-aware placement score
// prices every endpoint of every placement with TotalTransferTime, so the
// schedule it sums must stay on the stack.
func TestTotalTransferTimeAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ge := netsim.GigaE()
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		if n := testing.AllocsPerRun(100, func() { TotalTransferTime(ge, cs, 4096) }); n != 0 {
			t.Errorf("%v: TotalTransferTime allocates %v times, want 0", cs, n)
		}
	}
}

// crossValidate builds a model from source-network measurements and
// validates it against the target network's.
func crossValidate(cs calib.CaseStudy, source, target *netsim.Link,
	sourceMeasured, targetMeasured map[int]time.Duration) ([]CrossRow, error) {
	m, err := Build(cs, source, sourceMeasured)
	if err != nil {
		return nil, err
	}
	return CrossValidate(m, target, targetMeasured)
}

// Feed the model the paper's own published measurements and check that it
// reproduces the paper's fixed times, estimates, and error rates (Table IV).
func TestCrossValidationReproducesTableIV(t *testing.T) {
	ge, ib := netsim.GigaE(), netsim.IB40G()
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		geMeas := make(map[int]time.Duration)
		ibMeas := make(map[int]time.Duration)
		for _, size := range calib.Sizes(cs) {
			g, _ := calib.PaperMeasured(cs, "GigaE", size)
			i, _ := calib.PaperMeasured(cs, "40GI", size)
			geMeas[size], ibMeas[size] = g, i
		}
		rows, err := crossValidate(cs, ge, ib, geMeas, ibMeas)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			wantFixed, _ := calib.PaperFixed(cs, "GigaE", row.Size)
			if rel := math.Abs(row.Fixed.Seconds()-wantFixed.Seconds()) / wantFixed.Seconds(); rel > 0.02 {
				t.Fatalf("%v %d: fixed %v, paper %v (%.1f%% off)",
					cs, row.Size, row.Fixed, wantFixed, rel*100)
			}
			wantErr, _ := calib.PaperCrossError(cs, "GigaE", row.Size)
			if math.Abs(row.RelativeErrorPc-wantErr) > 1.5 {
				t.Fatalf("%v %d: error %.2f%%, paper %.2f%%", cs, row.Size, row.RelativeErrorPc, wantErr)
			}
		}
		// And the reverse direction.
		rows, err = crossValidate(cs, ib, ge, ibMeas, geMeas)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			wantErr, _ := calib.PaperCrossError(cs, "40GI", row.Size)
			if math.Abs(row.RelativeErrorPc-wantErr) > 1.5 {
				t.Fatalf("%v %d reverse: error %.2f%%, paper %.2f%%", cs, row.Size, row.RelativeErrorPc, wantErr)
			}
		}
	}
}

// The error-rate shape of the paper's conclusion: ~|2.2|% for MM, up to
// ~34% for FFT on the GigaE-based model.
func TestErrorShapeMMSmallFFTLarge(t *testing.T) {
	ge, ib := netsim.GigaE(), netsim.IB40G()
	load := func(cs calib.CaseStudy) (map[int]time.Duration, map[int]time.Duration) {
		a := make(map[int]time.Duration)
		b := make(map[int]time.Duration)
		for _, size := range calib.Sizes(cs) {
			g, _ := calib.PaperMeasured(cs, "GigaE", size)
			i, _ := calib.PaperMeasured(cs, "40GI", size)
			a[size], b[size] = g, i
		}
		return a, b
	}
	mmG, mmI := load(calib.MM)
	rows, _ := crossValidate(calib.MM, ge, ib, mmG, mmI)
	for _, r := range rows {
		if math.Abs(r.RelativeErrorPc) > 3 {
			t.Fatalf("MM error %.2f%% at %d exceeds the paper's ~2.2%% bound", r.RelativeErrorPc, r.Size)
		}
	}
	fftG, fftI := load(calib.FFT)
	rows, _ = crossValidate(calib.FFT, ge, ib, fftG, fftI)
	if rows[0].RelativeErrorPc < 20 {
		t.Fatalf("FFT smallest-batch error %.2f%% should be large (paper: 33.95%%)", rows[0].RelativeErrorPc)
	}
	// Error decreases with transfer size.
	for i := 1; i < len(rows); i++ {
		if rows[i].RelativeErrorPc > rows[i-1].RelativeErrorPc {
			t.Fatalf("FFT error should shrink with batch size: %v", rows)
		}
	}
}

// Estimates for the five target networks must land near Table VI when fed
// the paper's measurements.
func TestEstimateReproducesTableVI(t *testing.T) {
	ge := netsim.GigaE()
	for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
		meas := make(map[int]time.Duration)
		for _, size := range calib.Sizes(cs) {
			g, _ := calib.PaperMeasured(cs, "GigaE", size)
			meas[size] = g
		}
		model, err := Build(cs, ge, meas)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range calib.Sizes(cs) {
			for _, netName := range calib.TargetNetworks() {
				link, err := netsim.ByName(netName)
				if err != nil {
					t.Fatal(err)
				}
				got, err := model.Estimate(link, size)
				if err != nil {
					t.Fatal(err)
				}
				want, ok := calib.PaperTargetEstimate(cs, "GigaE", netName, size)
				if !ok {
					t.Fatalf("missing paper estimate %v %s %d", cs, netName, size)
				}
				if rel := math.Abs(got.Seconds()-want.Seconds()) / want.Seconds(); rel > 0.03 {
					t.Fatalf("%v %s %d: estimate %v, paper %v (%.1f%% off)",
						cs, netName, size, got, want, rel*100)
				}
			}
		}
	}
}

func TestBuildRejectsDegenerateInput(t *testing.T) {
	ge := netsim.GigaE()
	if _, err := Build(calib.MM, ge, nil); err == nil {
		t.Fatal("empty measurements must fail")
	}
	// A measurement below its own transfer time is physically impossible.
	bad := map[int]time.Duration{4096: time.Millisecond}
	if _, err := Build(calib.MM, ge, bad); err == nil {
		t.Fatal("measurement below transfer time must fail")
	}
}

func TestModelUnknownSize(t *testing.T) {
	ge := netsim.GigaE()
	m, err := Build(calib.MM, ge, map[int]time.Duration{4096: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Estimate(netsim.IB40G(), 8192); err == nil {
		t.Fatal("estimating an unmeasured size must fail")
	}
	if got := m.Sizes(); len(got) != 1 || got[0] != 4096 {
		t.Fatalf("Sizes() = %v", got)
	}
}

func TestCrossValidateMissingTargetSize(t *testing.T) {
	ge, ib := netsim.GigaE(), netsim.IB40G()
	src := map[int]time.Duration{4096: 4 * time.Second}
	if _, err := crossValidate(calib.MM, ge, ib, src, map[int]time.Duration{}); err == nil {
		t.Fatal("missing validation measurement must fail")
	}
}

func TestEligibility(t *testing.T) {
	ge := netsim.GigaE()
	meas := map[int]time.Duration{}
	for _, size := range calib.Sizes(calib.MM) {
		g, _ := calib.PaperMeasured(calib.MM, "GigaE", size)
		meas[size] = g
	}
	model, err := Build(calib.MM, ge, meas)
	if err != nil {
		t.Fatal(err)
	}
	// MM at 8192 over A-HT: remote GPU clearly beats the 8-core CPU.
	aht, _ := netsim.ByName("A-HT")
	e, err := Eligible(model, aht, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if !e.GPUWorth || !e.RemoteOK {
		t.Fatalf("MM 8192 over A-HT should be worth it: %+v", e)
	}
	if e.SpeedupPc <= 0 {
		t.Fatalf("speedup %.1f%% should be positive", e.SpeedupPc)
	}

	// FFT is not even GPU-eligible locally.
	fftMeas := map[int]time.Duration{}
	for _, size := range calib.Sizes(calib.FFT) {
		g, _ := calib.PaperMeasured(calib.FFT, "GigaE", size)
		fftMeas[size] = g
	}
	fftModel, err := Build(calib.FFT, ge, fftMeas)
	if err != nil {
		t.Fatal(err)
	}
	e, err = Eligible(fftModel, aht, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if e.GPUWorth || e.RemoteOK {
		t.Fatalf("FFT should not be GPU- or remote-eligible: %+v", e)
	}
}

func TestTableIIStructure(t *testing.T) {
	ge := netsim.GigaE()
	rows := TableII(calib.MM, 4096, ge)
	if len(rows) != 6 {
		t.Fatalf("TableII has %d rows, want 6", len(rows))
	}
	byOp := map[protocol.Op]TableIIRow{}
	for _, r := range rows {
		byOp[r.Op] = r
	}
	// Init: x+4 = 21490 bytes sent, 12 received, 338.7/44.4 µs on GigaE.
	init := byOp[protocol.OpInit]
	if init.SendBytes != 21490 || init.RecvBytes != 12 {
		t.Fatalf("init bytes %d/%d", init.SendBytes, init.RecvBytes)
	}
	approx(t, float64(init.SendTime)/float64(time.Microsecond), 338.7, 0.2, "init send µs")
	approx(t, float64(init.RecvTime)/float64(time.Microsecond), 44.4, 0.2, "init recv µs")
	// cudaMalloc ×3 in MM, 8/8 bytes, 22.2 µs each way.
	malloc := byOp[protocol.OpMalloc]
	if malloc.Count != 3 || malloc.SendBytes != 8 || malloc.RecvBytes != 8 {
		t.Fatalf("malloc row %+v", malloc)
	}
	approx(t, float64(malloc.SendTime)/float64(time.Microsecond), 22.2, 0.2, "malloc µs")
	// Input memcpy: 4m²+20 bytes sent, ×2.
	h2d := byOp[protocol.OpMemcpyToDevice]
	if h2d.Count != 2 || h2d.SendBytes != 4*4096*4096+20 || h2d.RecvBytes != 4 {
		t.Fatalf("h2d row %+v", h2d)
	}
	approx(t, ms(h2d.SendTime), 569.4, 0.7, "h2d payload time ≈ Table III")
	// Output memcpy receives 4m²+4.
	d2h := byOp[protocol.OpMemcpyToHost]
	if d2h.SendBytes != 20 || d2h.RecvBytes != 4*4096*4096+4 {
		t.Fatalf("d2h row %+v", d2h)
	}
	// Free ×3.
	if byOp[protocol.OpFree].Count != 3 {
		t.Fatal("free count")
	}
}

func TestTableIIFFTShape(t *testing.T) {
	ib := netsim.IB40G()
	rows := TableII(calib.FFT, 2048, ib)
	byOp := map[protocol.Op]TableIIRow{}
	for _, r := range rows {
		byOp[r.Op] = r
	}
	init := byOp[protocol.OpInit]
	if init.SendBytes != 7856 {
		t.Fatalf("FFT init sends %d, want 7856", init.SendBytes)
	}
	approx(t, float64(init.SendTime)/float64(time.Microsecond), 39.5, 0.2, "FFT init send µs on 40GI")
	if byOp[protocol.OpMalloc].Count != 1 || byOp[protocol.OpFree].Count != 1 {
		t.Fatal("FFT uses a single in-place buffer")
	}
	if byOp[protocol.OpMemcpyToDevice].Count != 1 {
		t.Fatal("FFT sends one input copy")
	}
	if got := byOp[protocol.OpMemcpyToDevice].SendBytes; got != 4096*2048+20 {
		t.Fatalf("FFT input copy %d bytes", got)
	}
}

func TestTableIITotalsDominatedByMemcpy(t *testing.T) {
	// Section V: all transfer times are negligible except the memcpys.
	ge := netsim.GigaE()
	rows := TableII(calib.MM, 4096, ge)
	_, _, sendTime, recvTime := Totals(rows)
	total := sendTime + recvTime
	memcpy := 2*rows[2].SendTime + rows[4].RecvTime
	if frac := float64(memcpy) / float64(total); frac < 0.99 {
		t.Fatalf("memcpy accounts for %.3f of transfer time, want > 0.99", frac)
	}
}

func TestTotalsArithmetic(t *testing.T) {
	rows := []TableIIRow{
		{Count: 2, SendBytes: 10, RecvBytes: 4, SendTime: time.Millisecond, RecvTime: time.Second},
		{Count: 1, SendBytes: 5, RecvBytes: 1, SendTime: time.Microsecond},
	}
	sb, rb, st, rt := Totals(rows)
	if sb != 25 || rb != 9 {
		t.Fatalf("byte totals %d/%d", sb, rb)
	}
	if st != 2*time.Millisecond+time.Microsecond || rt != 2*time.Second {
		t.Fatalf("time totals %v/%v", st, rt)
	}
}

func TestCrossoverSize(t *testing.T) {
	ge := netsim.GigaE()
	meas := map[int]time.Duration{}
	for _, size := range calib.Sizes(calib.MM) {
		g, _ := calib.PaperMeasured(calib.MM, "GigaE", size)
		meas[size] = g
	}
	model, err := Build(calib.MM, ge, meas)
	if err != nil {
		t.Fatal(err)
	}
	// On the fast A-HT network even m=4096 wins remotely over the CPU
	// (2.00s estimated vs 2.08s CPU in Table VI).
	aht, _ := netsim.ByName("A-HT")
	size, ok := CrossoverSize(model, aht)
	if !ok || size != 4096 {
		t.Fatalf("A-HT crossover = %d, %v; want 4096", size, ok)
	}
	// On GigaE itself the remote GPU only catches the CPU at larger m
	// (Table VI: GigaE loses until m=14336).
	size, ok = CrossoverSize(model, ge)
	if !ok || size <= 8192 {
		t.Fatalf("GigaE crossover = %d, %v; want a large size", size, ok)
	}

	// FFT never crosses over on any network.
	fftMeas := map[int]time.Duration{}
	for _, s := range calib.Sizes(calib.FFT) {
		g, _ := calib.PaperMeasured(calib.FFT, "GigaE", s)
		fftMeas[s] = g
	}
	fftModel, err := Build(calib.FFT, ge, fftMeas)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := CrossoverSize(fftModel, aht); ok {
		t.Fatal("FFT should never beat the CPU remotely")
	}
}

func TestMinimumBandwidth(t *testing.T) {
	ge := netsim.GigaE()
	meas := map[int]time.Duration{}
	for _, size := range calib.Sizes(calib.MM) {
		g, _ := calib.PaperMeasured(calib.MM, "GigaE", size)
		meas[size] = g
	}
	model, err := Build(calib.MM, ge, meas)
	if err != nil {
		t.Fatal(err)
	}
	bw, ok := MinimumBandwidth(model, 8192)
	if !ok {
		t.Fatal("MM 8192 must be remotable at some bandwidth")
	}
	// Sanity: the threshold must sit below the networks that win in
	// Table VI and the estimate at exactly that bandwidth must match
	// the CPU time.
	if bw <= 0 || bw >= 750 {
		t.Fatalf("minimum bandwidth %.1f MB/s implausible (Myrinet at 750 already wins)", bw)
	}
	link, err := netsim.Custom("threshold", bw)
	if err != nil {
		t.Fatal(err)
	}
	est, err := model.Estimate(link, 8192)
	if err != nil {
		t.Fatal(err)
	}
	cpu := calib.CPUTime(calib.MM, 8192)
	if rel := math.Abs(est.Seconds()-cpu.Seconds()) / cpu.Seconds(); rel > 0.001 {
		t.Fatalf("estimate at threshold bandwidth %v differs from CPU %v", est, cpu)
	}

	// FFT: not remotable at any bandwidth.
	fftMeas := map[int]time.Duration{}
	for _, s := range calib.Sizes(calib.FFT) {
		g, _ := calib.PaperMeasured(calib.FFT, "GigaE", s)
		fftMeas[s] = g
	}
	fftModel, err := Build(calib.FFT, ge, fftMeas)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := MinimumBandwidth(fftModel, 8192); ok {
		t.Fatal("FFT must not be remotable at any bandwidth")
	}
	if _, ok := MinimumBandwidth(model, 5000); ok {
		t.Fatal("unmeasured size must report !ok")
	}
}

func TestBandwidthSweep(t *testing.T) {
	ge := netsim.GigaE()
	meas := map[int]time.Duration{}
	for _, size := range calib.Sizes(calib.MM) {
		g, _ := calib.PaperMeasured(calib.MM, "GigaE", size)
		meas[size] = g
	}
	model, err := Build(calib.MM, ge, meas)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := BandwidthSweep(model, 8192, 50, 5000, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 20 {
		t.Fatalf("sweep produced %d points", len(pts))
	}
	// Monotone: more bandwidth never hurts; geometric spacing covers the
	// requested range.
	for i := 1; i < len(pts); i++ {
		if pts[i].Remote > pts[i-1].Remote {
			t.Fatalf("remote time rose with bandwidth at point %d", i)
		}
		if pts[i].BandwidthMBps <= pts[i-1].BandwidthMBps {
			t.Fatal("bandwidths must increase")
		}
	}
	if math.Abs(pts[0].BandwidthMBps-50) > 1e-9 ||
		math.Abs(pts[len(pts)-1].BandwidthMBps-5000) > 1 {
		t.Fatalf("sweep range [%g, %g]", pts[0].BandwidthMBps, pts[len(pts)-1].BandwidthMBps)
	}
	// The sweep must straddle the CPU line: slow end loses, fast end wins
	// (MinimumBandwidth for MM 8192 is ~240 MB/s).
	if pts[0].Remote <= pts[0].CPU {
		t.Fatal("50 MB/s should lose to the CPU")
	}
	last := pts[len(pts)-1]
	if last.Remote >= last.CPU {
		t.Fatal("5000 MB/s should beat the CPU")
	}
}

func TestBandwidthSweepValidation(t *testing.T) {
	ge := netsim.GigaE()
	model, err := Build(calib.MM, ge, map[int]time.Duration{4096: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BandwidthSweep(model, 4096, 100, 1000, 1); err == nil {
		t.Fatal("too few points must fail")
	}
	if _, err := BandwidthSweep(model, 4096, 1000, 100, 5); err == nil {
		t.Fatal("inverted range must fail")
	}
	if _, err := BandwidthSweep(model, 4096, 0, 100, 5); err == nil {
		t.Fatal("zero low bound must fail")
	}
	if _, err := BandwidthSweep(model, 9999, 100, 1000, 5); err == nil {
		t.Fatal("unmeasured size must fail")
	}
}
