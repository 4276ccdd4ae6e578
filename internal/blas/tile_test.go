package blas

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rcuda/internal/raceflag"
)

// bandWith computes C += A·B for a rows×cols×k product in one tile call —
// what sgemmBand does while no dimension exceeds blockSize — with the tile
// given, so the same product can be run through tile and through
// tilePortable.
func bandWith(tile func(c, a, b []float32, rows, ldc, lda, ldb int), rows, cols, k int, a, b, c []float32) {
	tile(c[:cols], a[:k], b, rows, cols, k, cols)
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
// band one tile call can see up to 40 rows, 40 columns and 40 deep — a
// single row and odd counts, all four strip widths, every tail, every k —
// with zeros, infinities, NaNs, denormals and whole zero rows in the
// operands and a nonzero C to accumulate into. The row strides of C and A
// and the stride of B run up to three elements past the strip, so a band
// has gaps between its rows; the operands are windows of larger slabs, C
// at the very end of its backing array, and nothing outside the rows'
// strips — gaps and guards — may change.
func TestTileMatchesPortable(t *testing.T) {
	const maxDim, maxPad, guard = 40, 3, 32
	const maxExtent = (maxDim-1)*(maxDim+maxPad) + maxDim
	const canary = float32(-7.5)
	rng := rand.New(rand.NewSource(20261003))
	pool := awkwardFloats(rng, 3*maxExtent+4096)
	slab := func() []float32 {
		s := make([]float32, guard+maxExtent+guard)
		for i := range s {
			s[i] = canary
		}
		return s
	}
	slabA, slabB, slabC := slab(), slab(), slab()[:guard+maxExtent]
	want, inA, inB := make([]float32, maxExtent), make([]float32, maxExtent), make([]float32, maxExtent)
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
		// Rows only repeat the strip; the short and race runs keep a few.
		if (testing.Short() || raceflag.Enabled) && rows > 3 && rows != maxDim {
			continue
		}
		for cols := 1; cols <= maxDim; cols++ {
			for k := 1; k <= maxDim; k++ {
				off = (off + 131) % 4096
				ldc, lda, ldb := cols+off%(maxPad+1), k+off/7%(maxPad+1), cols+off/5%(maxPad+1)
				extC, extA, extB := (rows-1)*ldc+cols, (rows-1)*lda+k, (k-1)*ldb+cols
				a := slabA[guard : guard+extA]
				b := slabB[guard : guard+extB]
				c := slabC[len(slabC)-extC:]
				copy(a, pool[off:])
				copy(b, pool[off+maxExtent:])
				copy(c, pool[off+2*maxExtent:])
				if off%5 == 0 { // one whole row of exact zeros
					zr := off % rows
					clear(a[zr*lda : zr*lda+k])
				}
				w, a0, b0 := want[:extC:extC], inA[:extA], inB[:extB]
				copy(w, c)
				copy(a0, a)
				copy(b0, b)
				tilePortable(w[:cols], a[:k], b, rows, ldc, lda, ldb)
				tile(c[:cols], a[:k], b, rows, ldc, lda, ldb)
				if i := sameBits(c, w); i >= 0 {
					t.Fatalf("%dx%dx%d (ldc %d, lda %d, ldb %d): tile differs from tilePortable at C row %d, column %d: %x vs %x",
						rows, cols, k, ldc, lda, ldb, i/ldc, i%ldc, math.Float32bits(c[i]), math.Float32bits(w[i]))
				}
				untouched("A", slabA, guard, guard+extA)
				untouched("B", slabB, guard, guard+extB)
				untouched("C", slabC, len(slabC)-extC, len(slabC))
				if sameBits(a, a0) >= 0 || sameBits(b, b0) >= 0 {
					t.Fatalf("%dx%dx%d: tile wrote to an input operand", rows, cols, k)
				}
				for _, s := range [][]float32{a, b, c} {
					for i := range s {
						s[i] = canary
					}
				}
			}
		}
	}
}

// TestTileRejectsShortB pins the Go-side assertion in front of the
// micro-kernel: an a or a c whose capacity is too short for the band's last
// row, a b too short for the last term that row reads, or a negative or
// overflowing stride, panics before any assembly runs — as an index
// expression in tilePortable does, which is checked alongside.
func TestTileRejectsShortB(t *testing.T) {
	const rows, cols, depth, ldc, lda, ldb = 3, 5, 3, 6, 4, 7
	cBand, aBand := make([]float32, (rows-1)*ldc+cols), make([]float32, (rows-1)*lda+depth)
	b := make([]float32, (depth-1)*ldb+cols)
	for i := range aBand {
		aBand[i] = 1 // a zero of a would skip its row of b
	}
	for name, tile := range map[string]func(c, a, b []float32, rows, ldc, lda, ldb int){"tile": tile, "tilePortable": tilePortable} {
		mustPanic := func(what string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with %s did not panic", name, what)
				}
			}()
			f()
		}
		c, a := cBand[:cols], aBand[:depth]
		mustPanic("b one short", func() { tile(c, a, b[:len(b)-1], rows, ldc, lda, ldb) })
		mustPanic("c one short for the last row", func() { tile(cBand[:cols:len(cBand)-1], a, b, rows, ldc, lda, ldb) })
		mustPanic("a one short for the last row", func() { tile(c, aBand[:depth:len(aBand)-1], b, rows, ldc, lda, ldb) })
		mustPanic("negative stride", func() { tile(c, a, make([]float32, 64), 1, ldc, lda, -1) })
		mustPanic("negative row stride", func() { tile(c, a, b, rows, -1, lda, ldb) })
		mustPanic("overflowing row stride", func() { tile(c, a, b, rows, math.MaxInt/2+1, lda, ldb) })
		tile(c, a, b, rows, ldc, lda, ldb) // exactly enough
		tile(c[:cols:cols], a[:depth:depth], b, 1, ldc, lda, ldb)
	}
}

// FuzzSgemmAgainstPortable lets the fuzzer pick the shape and the operand
// seed: Sgemm, whatever tile it runs on this GOARCH, must agree bit for bit
// with the portable tile applied to the whole product.
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
		bandWith(tilePortable, m, n, k, a, b, want)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%dx%dx%d seed %d: Sgemm differs from the portable tile at element %d: %x vs %x",
				m, n, k, seed, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	})
}

// TestTileSpeedupGate fails when the micro-kernel stops being one: the 16³
// product — one inference layer, one band call — through tile must run at
// least twice as fast as through tilePortable (measured 3.9-4.9× on a
// 2-vCPU Xeon, Sapphire Rapids, 2.0 GHz). A ratio of two loops timed in the same process, in alternating
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
	best := func(tile func(c, a, b []float32, rows, ldc, lda, ldb int), prev time.Duration) time.Duration {
		start := time.Now()
		for i := 0; i < reps; i++ {
			clear(c)
			bandWith(tile, n, n, n, a, b, c)
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

// TestSgemmAllocatesNothing gates the inline path one inference layer
// takes: a 16³ product allocates nothing.
func TestSgemmAllocatesNothing(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(6))
	a, b, c := randMatrix(rng, n*n), randMatrix(rng, n*n), make([]float32, n*n)
	var err error
	if got := testing.AllocsPerRun(200, func() { err = Sgemm(n, n, n, a, b, c) }); got != 0 {
		t.Errorf("Sgemm 16³ allocates %.0f times, want 0", got)
	}
	if err != nil {
		t.Fatal(err)
	}
}
