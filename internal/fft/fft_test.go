package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randSignal(rng *rand.Rand, n int) []complex64 {
	x := make([]complex64, n)
	for i := range x {
		x[i] = complex(rng.Float32()*2-1, rng.Float32()*2-1)
	}
	return x
}

// DFT computes the naive O(n²) reference transform of x into a new slice,
// the oracle the fast transform is checked against.
func DFT(dir Direction, x []complex64) []complex64 {
	n := len(x)
	out := make([]complex64, n)
	sign := -1.0
	if dir == Inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sumRe, sumIm float64
		for j := 0; j < n; j++ {
			angle := sign * 2 * math.Pi * float64(k*j) / float64(n)
			s, c := math.Sincos(angle)
			re, im := float64(real(x[j])), float64(imag(x[j]))
			sumRe += re*c - im*s
			sumIm += re*s + im*c
		}
		if dir == Inverse {
			sumRe /= float64(n)
			sumIm /= float64(n)
		}
		out[k] = complex(float32(sumRe), float32(sumIm))
	}
	return out
}

// TestMulMatchesComplexProduct holds mul to the complex64 product the
// amd64 compiler emits, bit for bit and NaN payloads included: spelling the
// product out so that no GOARCH fuses it must not change a transform here.
func TestMulMatchesComplexProduct(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the product operator may fuse on this GOARCH, which is what mul prevents")
	}
	special := []float32{0, float32(math.Copysign(0, -1)), 1, -1, float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002), math.SmallestNonzeroFloat32, math.MaxFloat32}
	rng := rand.New(rand.NewSource(34))
	part := func() float32 {
		if rng.Intn(4) == 0 {
			return special[rng.Intn(len(special))]
		}
		return float32(rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20)))
	}
	for i := 0; i < 200000; i++ {
		x, y := complex(part(), part()), complex(part(), part())
		got, want := mul(x, y), x*y
		if math.Float32bits(real(got)) != math.Float32bits(real(want)) || math.Float32bits(imag(got)) != math.Float32bits(imag(want)) {
			t.Fatalf("mul(%v, %v) = %v, the operator gives %v", x, y, got, want)
		}
	}
}

func maxDiff(a, b []complex64) float64 {
	var d float64
	for i := range a {
		if v := cmplx.Abs(complex128(a[i]) - complex128(b[i])); v > d {
			d = v
		}
	}
	return d
}

func TestTransformMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 512} {
		x := randSignal(rng, n)
		want := DFT(Forward, x)
		got := append([]complex64(nil), x...)
		if err := Transform(Forward, got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxDiff(got, want); d > 1e-3 {
			t.Fatalf("n=%d: FFT deviates from DFT by %g", n, d)
		}
	}
}

func TestInverseMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randSignal(rng, 64)
	want := DFT(Inverse, x)
	got := append([]complex64(nil), x...)
	if err := Transform(Inverse, got); err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(got, want); d > 1e-3 {
		t.Fatalf("inverse FFT deviates from inverse DFT by %g", d)
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randSignal(rng, Points)
	orig := append([]complex64(nil), x...)
	if err := Transform(Forward, x); err != nil {
		t.Fatal(err)
	}
	if err := Transform(Inverse, x); err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(x, orig); d > 1e-4 {
		t.Fatalf("forward+inverse deviates from identity by %g", d)
	}
}

func TestImpulseResponse(t *testing.T) {
	// The FFT of a unit impulse is all ones.
	x := make([]complex64, 16)
	x[0] = 1
	if err := Transform(Forward, x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(complex128(v)-1) > 1e-6 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestPureToneBin(t *testing.T) {
	// A complex exponential at frequency k concentrates in bin k.
	const n, k = 64, 5
	x := make([]complex64, n)
	for j := range x {
		angle := 2 * math.Pi * float64(k*j) / n
		s, c := math.Sincos(angle)
		x[j] = complex(float32(c), float32(s))
	}
	if err := Transform(Forward, x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		mag := cmplx.Abs(complex128(v))
		if i == k && math.Abs(mag-n) > 1e-3 {
			t.Fatalf("bin %d magnitude %g, want %d", i, mag, n)
		}
		if i != k && mag > 1e-3 {
			t.Fatalf("bin %d magnitude %g, want 0", i, mag)
		}
	}
}

func TestTransformRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 6, 100} {
		if err := Transform(Forward, make([]complex64, n)); err == nil {
			t.Fatalf("n=%d: want error", n)
		}
	}
	if err := Transform(Forward, nil); err == nil {
		t.Fatal("empty input: want error")
	}
}

func TestTransformBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const batch, n = 37, 64
	x := randSignal(rng, batch*n)
	want := make([]complex64, 0, len(x))
	for i := 0; i < batch; i++ {
		want = append(want, DFT(Forward, x[i*n:(i+1)*n])...)
	}
	if err := TransformBatch(Forward, x, n); err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(x, want); d > 1e-3 {
		t.Fatalf("batched FFT deviates from per-transform DFT by %g", d)
	}
}

func TestTransformBatchErrors(t *testing.T) {
	if err := TransformBatch(Forward, make([]complex64, 100), 64); err == nil {
		t.Fatal("ragged batch must error")
	}
	if err := TransformBatch(Forward, make([]complex64, 64), 63); err == nil {
		t.Fatal("non-power-of-two size must error")
	}
	if err := TransformBatch(Forward, nil, 64); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Parseval: sum |x|² == (1/n) sum |X|².
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randSignal(rng, 128)
		energy := func(xs []complex64) float64 {
			var e float64
			for _, v := range xs {
				re, im := float64(real(v)), float64(imag(v))
				e += re*re + im*im
			}
			return e
		}
		timeE := energy(x)
		if err := Transform(Forward, x); err != nil {
			return false
		}
		freqE := energy(x)
		return math.Abs(timeE-freqE/128) < 1e-2*math.Max(1, timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearityProperty(t *testing.T) {
	// FFT(a·x + y) == a·FFT(x) + FFT(y).
	f := func(seed int64, scaleBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := complex(float32(scaleBits%7)-3, 0)
		x := randSignal(rng, 64)
		y := randSignal(rng, 64)
		combo := make([]complex64, 64)
		for i := range combo {
			combo[i] = a*x[i] + y[i]
		}
		if Transform(Forward, combo) != nil || Transform(Forward, x) != nil || Transform(Forward, y) != nil {
			return false
		}
		for i := range combo {
			want := a*x[i] + y[i]
			if cmplx.Abs(complex128(combo[i]-want)) > 1e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randSignal(rng, Points)
		orig := append([]complex64(nil), x...)
		if Transform(Forward, x) != nil || Transform(Inverse, x) != nil {
			return false
		}
		return maxDiff(x, orig) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConstants(t *testing.T) {
	// The paper's arithmetic: one transform moves 8·512 = 4096 bytes, so a
	// batch of n moves 4096·n per direction.
	if BytesPerTransform != 4096 {
		t.Fatalf("BytesPerTransform = %d, want 4096", BytesPerTransform)
	}
}

func BenchmarkTransform512(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := randSignal(rng, Points)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Transform(Forward, x); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(BytesPerTransform)
}

func BenchmarkTransformBatch2048x512(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := randSignal(rng, 2048*Points)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := TransformBatch(Forward, x, Points); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(2048 * BytesPerTransform)
}

// BenchmarkBatchFanOut is the measurement behind parallelMinBatch: the same
// batch of 512-point transforms run inline and fanned out (directions
// alternate so the signal stays finite).
func BenchmarkBatchFanOut(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p, err := planFor(Points)
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 2, 3, 4, 8, 16} {
		x := randSignal(rng, batch*Points)
		b.Run(fmt.Sprintf("inline/%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.runRange(Direction(i&1), x, 0, batch)
			}
		})
		b.Run(fmt.Sprintf("parallel/%d", batch), func(b *testing.B) {
			workers := min(runtime.GOMAXPROCS(0), batch)
			for i := 0; i < b.N; i++ {
				p.runParallel(Direction(i&1), x, workers)
			}
		})
	}
}
