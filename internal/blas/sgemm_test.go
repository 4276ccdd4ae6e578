package blas

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, n int) []float32 {
	m := make([]float32, n)
	for i := range m {
		m[i] = rng.Float32()*2 - 1
	}
	return m
}

func maxAbsDiff(a, b []float32) float64 {
	var d float64
	for i := range a {
		if v := math.Abs(float64(a[i] - b[i])); v > d {
			d = v
		}
	}
	return d
}

func TestSgemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {16, 16, 16}, {64, 64, 64}, {65, 63, 67}, {128, 96, 200}, {1, 100, 1}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randMatrix(rng, m*k)
		b := randMatrix(rng, k*n)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		if err := Sgemm(m, n, k, a, b, got); err != nil {
			t.Fatalf("Sgemm(%v): %v", dims, err)
		}
		if err := SgemmNaive(m, n, k, a, b, want); err != nil {
			t.Fatal(err)
		}
		// Blocked summation reorders additions; allow accumulation
		// round-off proportional to k.
		if d := maxAbsDiff(got, want); d > 1e-4*float64(k) {
			t.Fatalf("Sgemm(%v) deviates from naive by %g", dims, d)
		}
	}
}

func TestSgemmIdentity(t *testing.T) {
	const n = 50
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, n*n)
	id := make([]float32, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	c := make([]float32, n*n)
	if err := Sgemm(n, n, n, a, id, c); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(c, a); d > 1e-6 {
		t.Fatalf("A·I deviates from A by %g", d)
	}
	if err := Sgemm(n, n, n, id, a, c); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(c, a); d > 1e-6 {
		t.Fatalf("I·A deviates from A by %g", d)
	}
}

func TestSgemmOverwritesC(t *testing.T) {
	// C must be overwritten, not accumulated into.
	m, n, k := 3, 3, 3
	a := make([]float32, 9)
	b := make([]float32, 9)
	c := []float32{9, 9, 9, 9, 9, 9, 9, 9, 9}
	if err := Sgemm(m, n, k, a, b, c); err != nil {
		t.Fatal(err)
	}
	for i, v := range c {
		if v != 0 {
			t.Fatalf("c[%d] = %g after zero GEMM, want 0", i, v)
		}
	}
}

func TestSgemmDegenerate(t *testing.T) {
	if err := Sgemm(0, 0, 0, nil, nil, nil); err != nil {
		t.Fatalf("empty GEMM: %v", err)
	}
	// k == 0: C = 0.
	c := []float32{5, 5}
	if err := Sgemm(1, 2, 0, nil, nil, c); err != nil {
		t.Fatal(err)
	}
	if c[0] != 0 || c[1] != 0 {
		t.Fatal("k=0 GEMM must zero C")
	}
}

func TestSgemmDimensionErrors(t *testing.T) {
	good := make([]float32, 4)
	if err := Sgemm(-1, 2, 2, good, good, good); err == nil {
		t.Fatal("negative dimension must error")
	}
	if err := Sgemm(2, 2, 2, good[:3], good, good); err == nil {
		t.Fatal("short A must error")
	}
	if err := Sgemm(2, 2, 2, good, good[:1], good); err == nil {
		t.Fatal("short B must error")
	}
	if err := Sgemm(2, 2, 2, good, good, good[:2]); err == nil {
		t.Fatal("short C must error")
	}
	if err := SgemmNaive(2, 2, 2, good, good, good[:2]); err == nil {
		t.Fatal("naive short C must error")
	}
}

// Property: (A·B)·x == A·(B·x) for random square systems — an associativity
// check that exercises GEMM against matrix-vector products computed
// independently.
func TestSgemmAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(24)
		a := randMatrix(rng, n*n)
		b := randMatrix(rng, n*n)
		x := randMatrix(rng, n)

		ab := make([]float32, n*n)
		if Sgemm(n, n, n, a, b, ab) != nil {
			return false
		}
		// lhs = (A·B)·x
		lhs := matVec(ab, x, n)
		// rhs = A·(B·x)
		rhs := matVec(a, matVec(b, x, n), n)
		for i := range lhs {
			if math.Abs(float64(lhs[i]-rhs[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func matVec(a, x []float32, n int) []float32 {
	y := make([]float32, n)
	for i := 0; i < n; i++ {
		var s float32
		for j := 0; j < n; j++ {
			s += a[i*n+j] * x[j]
		}
		y[i] = s
	}
	return y
}

func BenchmarkSgemm256(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 256
	a := randMatrix(rng, n*n)
	bm := randMatrix(rng, n*n)
	c := make([]float32, n*n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Sgemm(n, n, n, a, bm, c); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(3 * 4 * n * n))
}

// BenchmarkSgemmFanOut is the measurement behind parallelMinWork: the same
// square product run inline and fanned out, either side of the threshold.
func BenchmarkSgemmFanOut(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{16, 24, 32, 40, 48, 64, 96, 128} {
		a := randMatrix(rng, n*n)
		bm := randMatrix(rng, n*n)
		c := make([]float32, n*n)
		b.Run(fmt.Sprintf("inline/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(c)
				sgemmBand(0, n, n, n, a, bm, c)
			}
		})
		b.Run(fmt.Sprintf("parallel/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(c)
				sgemmParallel(runtime.GOMAXPROCS(0), n, n, n, a, bm, c)
			}
		})
	}
}

// sgemmBandSaxpy is the band loop as it stood before the register-tiled
// rewrite, kept here as the bit-exactness reference: a row-at-a-time saxpy
// in ascending k that skips exact zeros of A.
func sgemmBandSaxpy(lo, hi, n, k int, a, b, c []float32) {
	for kk := 0; kk < k; kk += blockSize {
		kmax := min(kk+blockSize, k)
		for jj := 0; jj < n; jj += blockSize {
			jmax := min(jj+blockSize, n)
			for i := lo; i < hi; i++ {
				arow := a[i*k : i*k+k]
				crow := c[i*n : i*n+n]
				for kx := kk; kx < kmax; kx++ {
					aik := arow[kx]
					if aik == 0 {
						continue
					}
					brow := b[kx*n : kx*n+n]
					for j := jj; j < jmax; j++ {
						crow[j] += aik * brow[j]
					}
				}
			}
		}
	}
}

// sameBits reports the first index at which two float32 slices differ in
// representation — signed zeros and infinities included — or -1. NaNs
// compare equal to each other whatever their sign and payload: IEEE 754
// lets an addition of two NaNs return either operand's, x86 returns the
// destination register's, and which operand the compiler puts there
// differs between two spellings of the same loop (and between builds, e.g.
// under -race). Where a NaN appears is deterministic; which NaN is not a
// property of the source.
func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i
		}
	}
	return -1
}

// TestSgemmPathsBitExact is the seeded property behind the fan-out
// threshold: for shapes straddling it — non-square, with zero rows, exact
// zeros, infinities and NaNs in the operands — the inline band, the
// parallel fan-out, Sgemm's own choice between them, and the pre-change
// loop all produce identical bits.
func TestSgemmPathsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	fill := func(n, stride int) []float32 {
		m := randMatrix(rng, n)
		for i := range m {
			switch r := rng.Intn(40); {
			case r < 4:
				m[i] = 0
			case r == 4:
				m[i] = special[rng.Intn(len(special))]
			}
		}
		if stride > 0 && n >= stride { // one whole row of exact zeros
			row := rng.Intn(n / stride)
			clear(m[row*stride : (row+1)*stride])
		}
		return m
	}
	shapes := [][3]int{{1, 1, 1}, {16, 16, 16}, {63, 65, 64}, {64, 64, 64}, {65, 64, 63}, {130, 7, 129}, {2, 130, 130}, {130, 130, 1}}
	for len(shapes) < 60 {
		shapes = append(shapes, [3]int{1 + rng.Intn(130), 1 + rng.Intn(130), 1 + rng.Intn(130)})
	}
	below, above := 0, 0
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		if m*n*k < parallelMinWork {
			below++
		} else {
			above++
		}
		a, b := fill(m*k, k), fill(k*n, 0)
		want := make([]float32, m*n)
		sgemmBandSaxpy(0, m, n, k, a, b, want)

		inline := make([]float32, m*n)
		sgemmBand(0, m, n, k, a, b, inline)
		parallel := make([]float32, m*n)
		sgemmParallel(min(m, 4), m, n, k, a, b, parallel)
		chosen := make([]float32, m*n)
		for i := range chosen {
			chosen[i] = 7 // Sgemm must overwrite, not accumulate
		}
		if err := Sgemm(m, n, k, a, b, chosen); err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string][]float32{"inline": inline, "parallel": parallel, "Sgemm": chosen} {
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%dx%dx%d: %s path differs from the reference loop at element %d: %x vs %x",
					m, n, k, name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("shapes do not straddle the threshold: %d below, %d above", below, above)
	}
}
