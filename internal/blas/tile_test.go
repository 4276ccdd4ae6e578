package blas

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rcuda/internal/raceflag"
)

// rowsWith computes C += A·B one row strip per tile call — what sgemmBand
// does while no dimension exceeds blockSize — with the tile given, so the
// same product can be run through tile and through tilePortable.
func rowsWith(tile func(c, a, b []float32, ldb int), rows, cols, k int, a, b, c []float32) {
	for i := 0; i < rows; i++ {
		tile(c[i*cols:(i+1)*cols], a[i*k:(i+1)*k], b, cols)
	}
}

// awkwardFloats returns n seeded values in which every kind the tile
// contract speaks of is common: exact zeros of both signs, infinities, NaN
// and denormals among ordinary values of mixed magnitude.
func awkwardFloats(rng *rand.Rand, n int) []float32 {
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.SmallestNonzeroFloat32, -3 * math.SmallestNonzeroFloat32, 1e-39, 1e-20, -1e20}
	m := make([]float32, n)
	for i := range m {
		switch r := rng.Intn(40); {
		case r < 4:
			m[i] = 0
		case r < 7:
			m[i] = special[rng.Intn(len(special))]
		default:
			m[i] = rng.Float32()*2 - 1
		}
	}
	return m
}

// TestTileMatchesPortable holds the micro-kernel to its oracle on every
// shape one tile call can see up to 40 wide and deep — all four strip
// widths, every tail, every k — with zeros, infinities, NaNs, denormals and
// whole zero rows in the operands and a nonzero C to accumulate into. The
// operands are windows of larger slabs, C at the very end of its backing
// array, and everything outside the windows must come back untouched.
func TestTileMatchesPortable(t *testing.T) {
	const maxDim, guard = 40, 32
	const canary = float32(-7.5)
	rng := rand.New(rand.NewSource(20261003))
	pool := awkwardFloats(rng, 3*maxDim*maxDim+4096)
	slab := func() []float32 {
		s := make([]float32, guard+maxDim*maxDim+guard)
		for i := range s {
			s[i] = canary
		}
		return s
	}
	slabA, slabB, slabC := slab(), slab(), slab()[:guard+maxDim*maxDim]
	want, inA, inB := make([]float32, maxDim*maxDim), make([]float32, maxDim*maxDim), make([]float32, maxDim*maxDim)
	untouched := func(name string, s []float32, lo, hi int) {
		t.Helper()
		for i, v := range s {
			if (i < lo || i >= hi) && v != canary {
				t.Fatalf("%s[%d] outside the operand window [%d,%d) was written: %g", name, i, lo, hi, v)
			}
		}
	}
	off := 0
	for rows := 1; rows <= maxDim; rows++ {
		// Rows only repeat the call; the short and race runs keep a few.
		if (testing.Short() || raceflag.Enabled) && rows > 3 && rows != maxDim {
			continue
		}
		for cols := 1; cols <= maxDim; cols++ {
			for k := 1; k <= maxDim; k++ {
				off = (off + 131) % 4096
				a := slabA[guard : guard+rows*k]
				b := slabB[guard : guard+k*cols]
				c := slabC[len(slabC)-rows*cols:]
				copy(a, pool[off:])
				copy(b, pool[off+maxDim*maxDim:])
				copy(c, pool[off+2*maxDim*maxDim:])
				if off%5 == 0 { // one whole row of exact zeros
					clear(a[(off%rows)*k : (off%rows+1)*k])
				}
				w, a0, b0 := want[:rows*cols], inA[:rows*k], inB[:k*cols]
				copy(w, c)
				copy(a0, a)
				copy(b0, b)
				rowsWith(tilePortable, rows, cols, k, a, b, w)
				rowsWith(tile, rows, cols, k, a, b, c)
				if i := sameBits(c, w); i >= 0 {
					t.Fatalf("%dx%dx%d: tile differs from tilePortable at element %d: %x vs %x",
						rows, cols, k, i, math.Float32bits(c[i]), math.Float32bits(w[i]))
				}
				untouched("A", slabA, guard, guard+rows*k)
				untouched("B", slabB, guard, guard+k*cols)
				untouched("C", slabC, len(slabC)-rows*cols, len(slabC))
				if sameBits(a, a0) >= 0 || sameBits(b, b0) >= 0 {
					t.Fatalf("%dx%dx%d: tile wrote to an input operand", rows, cols, k)
				}
				for i := range a {
					a[i] = canary
				}
				for i := range b {
					b[i] = canary
				}
				for i := range c {
					c[i] = canary
				}
			}
		}
	}
}

// TestTileRejectsShortB pins the Go-side assertion in front of the
// micro-kernel: a b too short for the last row the tile would read, or a
// negative stride, panics before any assembly runs, as an index expression
// in tilePortable would.
func TestTileRejectsShortB(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: tile did not panic", name)
			}
		}()
		f()
	}
	c, a := make([]float32, 5), []float32{1, 1, 1}
	mustPanic("b one short", func() { tile(c, a, make([]float32, 2*7+5-1), 7) })
	mustPanic("negative stride", func() { tile(c, a, make([]float32, 64), -1) })
	tile(c, a, make([]float32, 2*7+5), 7) // exactly enough
}

// FuzzSgemmAgainstPortable lets the fuzzer pick the shape and the operand
// seed: Sgemm, whatever tile it runs on this GOARCH, must agree bit for bit
// with the portable tile applied row by row.
func FuzzSgemmAgainstPortable(f *testing.F) {
	for _, s := range [][3]uint8{{0, 0, 0}, {15, 15, 15}, {16, 18, 2}, {47, 47, 47}, {2, 20, 40}, {30, 3, 7}, {7, 11, 0}} {
		f.Add(s[0], s[1], s[2], int64(s[0])<<16|int64(s[1])<<8|int64(s[2]))
	}
	f.Fuzz(func(t *testing.T, mRaw, nRaw, kRaw uint8, seed int64) {
		m, n, k := 1+int(mRaw)%48, 1+int(nRaw)%48, 1+int(kRaw)%48
		rng := rand.New(rand.NewSource(seed))
		a, b := awkwardFloats(rng, m*k), awkwardFloats(rng, k*n)
		got := awkwardFloats(rng, m*n) // Sgemm must overwrite it
		if err := Sgemm(m, n, k, a, b, got); err != nil {
			t.Fatal(err)
		}
		want := make([]float32, m*n)
		rowsWith(tilePortable, m, n, k, a, b, want)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%dx%dx%d seed %d: Sgemm differs from the portable tile at element %d: %x vs %x",
				m, n, k, seed, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	})
}

// TestTileSpeedupGate fails when the micro-kernel stops being one: the 16³
// product — one inference layer — through tile must run at least twice as
// fast as through tilePortable (measured 3.1-4.0× on the 2-vCPU benchmark
// machine). A ratio of two loops timed in the same process, in alternating
// rounds, best round each, so machine speed and a noisy neighbour cancel.
func TestTileSpeedupGate(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("no micro-kernel on this GOARCH: tile is tilePortable")
	}
	if raceflag.Enabled || testing.Short() {
		t.Skip("timing gate: needs an uninstrumented build and a few milliseconds")
	}
	const n, reps, rounds = 16, 500, 25
	rng := rand.New(rand.NewSource(5))
	a, b, c := randMatrix(rng, n*n), randMatrix(rng, n*n), make([]float32, n*n)
	best := func(tile func(c, a, b []float32, ldb int), prev time.Duration) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			clear(c)
			rowsWith(tile, n, n, n, a, b, c)
		}
		if d := time.Since(start); prev == 0 || d < prev {
			return d
		}
		return prev
	}
	var fast, portable time.Duration
	for r := 0; r < rounds; r++ {
		fast = best(tile, fast)
		portable = best(tilePortable, portable)
	}
	ratio := float64(portable) / float64(fast)
	t.Logf("16³ band: portable %d ns, micro-kernel %d ns, %.1fx", portable.Nanoseconds()/reps, fast.Nanoseconds()/reps, ratio)
	if ratio < 2 {
		t.Fatalf("micro-kernel is only %.2fx the portable tile on 16³, want >= 2x", ratio)
	}
}
