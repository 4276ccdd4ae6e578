package blas

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"rcuda/internal/raceflag"
)

// TestSgemmWithoutAVXMatchesPortable runs Sgemm as a CPU without AVX does
// — tile on tilePortable — over shapes that leave every row tail and every
// strip width, inline and fanned out, and holds it to the portable tile
// applied to the whole product.
func TestSgemmWithoutAVXMatchesPortable(t *testing.T) {
	saved := haveAVX
	t.Cleanup(func() { haveAVX = saved })
	haveAVX = false
	rng := rand.New(rand.NewSource(34))
	for _, s := range [][3]int{{1, 1, 1}, {1, 31, 17}, {3, 29, 5}, {5, 16, 16}, {6, 13, 40}, {7, 64, 65}, {17, 33, 3}, {99, 97, 95}} {
		m, n, k := s[0], s[1], s[2]
		a, b := awkwardFloats(rng, m*k), awkwardFloats(rng, k*n)
		got := awkwardFloats(rng, m*n)
		if err := Sgemm(m, n, k, a, b, got); err != nil {
			t.Fatal(err)
		}
		want := make([]float32, m*n)
		bandWith(tilePortable, m, n, k, a, b, want)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%dx%dx%d without AVX: Sgemm differs from the portable tile at element %d: %x vs %x",
				m, n, k, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestTileNaNPayloadsPinned pins which NaN comes out when NaNs meet, in
// every strip width and in a pass with a repeated row — bits sameBits lets
// through. Three rows of 31 columns (16 + 8 + 4 + 3), two terms, every a
// and b a NaN with its own payload, every odd column of C a NaN too. The
// expected bits are what the SSE2 kernel that preceded this one produced:
// a NaN of C stays (c + product keeps its first operand); elsewhere the
// product's NaN is b's in the vector strips (b·a) and a's in the last
// three columns (a·b); the second term's NaN never surfaces.
func TestTileNaNPayloadsPinned(t *testing.T) {
	if !haveAVX {
		t.Skip("no micro-kernel on this CPU: tile is tilePortable, whose NaN operands the compiler orders")
	}
	const rows, cols, k = 3, 31, 2
	a, b, c := make([]float32, rows*k), make([]float32, k*cols), make([]float32, rows*cols)
	for r := 0; r < rows; r++ {
		a[r*k] = math.Float32frombits(0x7fc00100 + uint32(r))
		a[r*k+1] = math.Float32frombits(0xffc00200 + uint32(r))
		for j := 0; j < cols; j++ {
			c[r*cols+j] = float32(j)
			if j%2 == 1 {
				c[r*cols+j] = math.Float32frombits(0x7fe00000 + uint32(r*64+j))
			}
		}
	}
	for j := 0; j < cols; j++ {
		b[j] = math.Float32frombits(0x7fc10000 + uint32(j))
		b[cols+j] = math.Float32frombits(0xffc20000 + uint32(j))
	}
	tile(c[:cols], a[:k], b, rows, cols, k, cols)
	for r := 0; r < rows; r++ {
		for j := 0; j < cols; j++ {
			want := uint32(0x7fc10000 + j)
			switch {
			case j%2 == 1:
				want = uint32(0x7fe00000 + r*64 + j)
			case j >= 28:
				want = uint32(0x7fc00100 + r)
			}
			if got := math.Float32bits(c[r*cols+j]); got != want {
				t.Errorf("row %d column %d: %#08x, want %#08x", r, j, got, want)
			}
		}
	}
}

// TestTileSpeedupGate fails when the micro-kernel stops being one: the 16³
// product — one inference layer, one band call — through tile must run at
// least 3.5 times as fast as through tilePortable, half the 6.9-8.2×
// measured on a 2-vCPU Xeon (Sapphire Rapids, 2.0 GHz) with the AVX kernel
// (the SSE2 kernel before it read 3.9-4.9× there against a gate of 2×). A
// ratio of two loops timed in the same process, in alternating rounds, best
// round each, so machine speed and a noisy neighbour cancel.
func TestTileSpeedupGate(t *testing.T) {
	if !haveAVX {
		t.Skip("no micro-kernel on this CPU: tile is tilePortable")
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
	if ratio < 3.5 {
		t.Fatalf("micro-kernel is only %.2fx the portable tile on 16³, want >= 3.5x", ratio)
	}
}
