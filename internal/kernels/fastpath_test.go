package kernels

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"rcuda/internal/blas"
	"rcuda/internal/cudart"
	"rcuda/internal/fft"
	"rcuda/internal/gpu"
	"rcuda/internal/raceflag"
	"rcuda/internal/vclock"
)

// openContext returns a context with both case-study modules loaded on a
// fresh Sim-clock device, for tests that need the device-layer errors and
// raw device addresses cudart.Local hides.
func openContext(t testing.TB, dev *gpu.Device) *gpu.Context {
	t.Helper()
	ctx := dev.NewContextPreinitialized()
	for _, name := range []string{MMModule, FFTModule} {
		mod, err := gpu.LookupModule(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.LoadModule(mod); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { _ = ctx.Destroy() })
	return ctx
}

func newDevice() *gpu.Device { return gpu.New(gpu.Config{Clock: vclock.NewSim()}) }

func seededFloats(rng *rand.Rand, n int) []float32 {
	m := make([]float32, n)
	for i := range m {
		m[i] = rng.Float32()*2 - 1
	}
	return m
}

// totalAllocDuring returns the heap bytes allocated while f runs.
func totalAllocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOperandSizeCannotWrap is the regression test for the 32-bit size
// wrap: launch parameters whose operand size overflows uint32 used to pass
// every bounds check (4·32768² wraps to 0) and then either allocate
// gigabytes of staging or succeed as a silent no-op. They must fail like
// any other overrun — ErrInvalidDevPtr — before anything is staged.
func TestOperandSizeCannotWrap(t *testing.T) {
	dev := newDevice()
	ctx := openContext(t, dev)
	ptr, err := ctx.Malloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := ctx.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		kernel string
		params []byte
	}{
		{"sgemm m=32768 wraps to 0 bytes", SgemmKernel, gpu.PackParams(ptr, ptr, ptr, 32768)},
		{"sgemm m=46341 wraps to 18532 bytes", SgemmKernel, gpu.PackParams(ptr, ptr, ptr, 46341)},
		{"sgemm m=2^31 overflows 64 bits too", SgemmKernel, gpu.PackParams(ptr, ptr, ptr, 1<<31)},
		{"fft batch=2^20 wraps to 0 bytes", FFTKernel, gpu.PackParams(ptr, 1<<20, 0)},
		{"fft batch=2^20+1 wraps to one transform", FFTKernel, gpu.PackParams(ptr, 1<<20+1, 0)},
	}
	// The error an honest overrun produces, for comparison.
	plain := ctx.Launch(SgemmKernel, gpu.Dim3{}, gpu.Dim3{}, 0, gpu.PackParams(ptr, ptr, ptr, 1024))
	if !errors.Is(plain, gpu.ErrInvalidDevPtr) {
		t.Fatalf("plain overrun = %v, want ErrInvalidDevPtr", plain)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clockBefore := dev.Clock().Now()
			var syncErr, asyncErr error
			grew := totalAllocDuring(func() {
				syncErr = ctx.Launch(tc.kernel, gpu.Dim3{}, gpu.Dim3{}, 0, tc.params)
				asyncErr = ctx.LaunchAsync(tc.kernel, gpu.Dim3{}, gpu.Dim3{}, 0, tc.params, stream)
			})
			for _, err := range []error{syncErr, asyncErr} {
				if !errors.Is(err, gpu.ErrInvalidDevPtr) {
					t.Fatalf("launch = %v, want ErrInvalidDevPtr like a plain overrun (%v)", err, plain)
				}
			}
			if grew >= 1<<20 {
				t.Fatalf("rejected launch allocated %d bytes, want < 1 MiB", grew)
			}
			if err := ctx.Synchronize(); err != nil {
				t.Fatal(err)
			}
			if now := dev.Clock().Now(); now != clockBefore {
				t.Fatalf("rejected launch charged %v of modeled time", now-clockBefore)
			}
		})
	}
}

// sgemmOnDevice lays the three operands out at the given byte offsets of
// one device allocation, launches sgemmNN and returns the whole allocation.
func sgemmOnDevice(t *testing.T, ctx *gpu.Context, m int, image []byte, aOff, bOff, cOff uint32) []byte {
	t.Helper()
	base, err := ctx.Malloc(uint32(len(image)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ctx.Free(base) }()
	if err := ctx.CopyToDevice(base, image); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch(SgemmKernel, gpu.Dim3{X: 1, Y: 1}, gpu.Dim3{X: 16, Y: 16}, 0,
		gpu.PackParams(base+aOff, base+bOff, base+cOff, uint32(m))); err != nil {
		t.Fatal(err)
	}
	out, err := ctx.CopyToHost(base, uint32(len(image)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSgemmKernelAliasedOperands pins the snapshot-then-write semantics:
// when C is A, is B, or partially overlaps either, the kernel computes from
// the operands as they were at launch and only then writes C.
func TestSgemmKernelAliasedOperands(t *testing.T) {
	ctx := openContext(t, newDevice())
	const m = 16
	const mat = 4 * m * m // bytes per matrix
	rng := rand.New(rand.NewSource(11))
	// Room for three matrices and overlap, and three odd bytes so that a
	// byte-misaligned operand can end on the allocation's last byte.
	image := append(cudart.Float32Bytes(seededFloats(rng, 4*m*m)), 0x3f, 0x80, 0x7f)
	cases := []struct {
		name             string
		aOff, bOff, cOff uint32
	}{
		{"disjoint", 0, mat, 2 * mat},
		{"C is A", 0, mat, 0},
		{"C is B", 0, mat, mat},
		{"A is B is C", mat, mat, mat},
		{"C overlaps the tail of A", 0, 2 * mat, mat / 2},
		{"C overlaps the head of B", 0, mat + mat/2, mat},
		{"C straddles A and B, unaligned", 0, mat, mat/2 + 4},
		// Device pointers are byte addresses: an operand that does not start
		// on a float32 boundary cannot be computed on in place.
		{"A at +1", 1, mat + 4, 2*mat + 4},
		{"A at +2", 2, mat + 4, 2*mat + 4},
		{"A at +3", 3, mat + 4, 2*mat + 4},
		{"B at +1", 0, mat + 1, 2*mat + 4},
		{"B at +2", 0, mat + 2, 2*mat + 4},
		{"B at +3", 0, mat + 3, 2*mat + 4},
		{"C at +1", 0, mat, 2*mat + 1},
		{"C at +2", 0, mat, 2*mat + 2},
		{"C at +3", 0, mat, 2*mat + 3},
		{"all three at +1", 1, mat + 1, 2*mat + 1},
		{"first element of C is the last of A", 0, 2 * mat, mat - 4},
		{"last element of C is the first of A", mat, 2 * mat, 4},
		{"first element of C is the last of B", 2 * mat, 0, mat - 4},
		{"C ends on the last aligned byte", mat, 2 * mat, 3 * mat},
		{"A ends on the last aligned byte", 3 * mat, 0, mat},
		{"C at +3 ends on the last byte of the allocation", 0, mat, 3*mat + 3},
		{"B at +3 ends on the last byte of the allocation", 0, 3*mat + 3, mat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := sgemmOnDevice(t, ctx, m, image, tc.aOff, tc.bOff, tc.cOff)
			// Snapshot the operands from the launch-time image, multiply,
			// then write C over a copy of it.
			a := cudart.BytesFloat32(image[tc.aOff : tc.aOff+mat])
			b := cudart.BytesFloat32(image[tc.bOff : tc.bOff+mat])
			c := make([]float32, m*m)
			if err := blas.Sgemm(m, m, m, a, b, c); err != nil {
				t.Fatal(err)
			}
			want := append([]byte(nil), image...)
			copy(want[tc.cOff:], cudart.Float32Bytes(c))
			if !bytes.Equal(got, want) {
				t.Fatal("device memory differs from snapshot-then-write")
			}
		})
	}
}

// TestViewSharesAlignedMemory pins both answers of the in-place helper: an
// element-aligned range comes back as the same memory, typed (a write
// through the view is a write to the bytes, little-endian), and a range one
// to three bytes off does not come back at all. Under -race this is also
// the checkptr run of the repository's one unsafe conversion, up to the last
// byte of an allocation.
func TestViewSharesAlignedMemory(t *testing.T) {
	mem := make([]byte, 64)
	f, ok := view[float32](mem[32:])
	if !ok || len(f) != 8 {
		t.Fatalf("aligned tail of an allocation: view = %d elements, %v; want 8, true", len(f), ok)
	}
	f[7] = 1 // 0x3f800000
	if !bytes.Equal(mem[60:], []byte{0, 0, 0x80, 0x3f}) {
		t.Fatalf("write through the view left % x in memory", mem[60:])
	}
	c, ok := view[complex64](mem[56:])
	if !ok || len(c) != 1 || c[0] != complex(0, 1) {
		t.Fatalf("complex view = %v, %v; want [(0+1i)], true", c, ok)
	}
	for off := 1; off < 4; off++ {
		if _, ok := view[float32](mem[off : off+16]); ok {
			t.Fatalf("range at +%d viewed in place", off)
		}
		if _, ok := view[complex64](mem[off : off+16]); ok {
			t.Fatalf("complex range at +%d viewed in place", off)
		}
	}
	if _, ok := view[float32](nil); ok {
		t.Fatal("empty range viewed in place")
	}
}

// TestInPlaceAndStagedAgree runs the same seeded 24-layer inference with the
// activation buffers element-aligned (every launch computes on device
// memory in place) and one, two and three bytes off (every launch stages):
// the two paths must be indistinguishable in the output bytes.
func TestInPlaceAndStagedAgree(t *testing.T) {
	ctx := openContext(t, newDevice())
	const m, layers = 16, 24
	const mat = 4 * m * m
	rng := rand.New(rand.NewSource(24))
	var weights [layers]uint32
	for l := range weights {
		p, err := ctx.Malloc(mat)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.CopyToDevice(p, cudart.Float32Bytes(seededFloats(rng, m*m))); err != nil {
			t.Fatal(err)
		}
		weights[l] = p
	}
	input := cudart.Float32Bytes(seededFloats(rng, m*m))
	infer := func(misalign uint32) []byte {
		t.Helper()
		var act [2]uint32
		for i := range act {
			p, err := ctx.Malloc(mat + misalign)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ctx.Free(p) }()
			act[i] = p + misalign
		}
		if err := ctx.CopyToDevice(act[0], input); err != nil {
			t.Fatal(err)
		}
		for l, w := range weights {
			if err := ctx.Launch(SgemmKernel, gpu.Dim3{X: 1, Y: 1}, gpu.Dim3{X: m, Y: m}, 0,
				gpu.PackParams(w, act[l%2], act[(l+1)%2], m)); err != nil {
				t.Fatal(err)
			}
		}
		out, err := ctx.CopyToHost(act[layers%2], mat)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := infer(0)
	if bytes.Equal(want, input) || bytes.Equal(want, make([]byte, mat)) {
		t.Fatal("inference left no result to compare")
	}
	for misalign := uint32(1); misalign < 4; misalign++ {
		if got := infer(misalign); !bytes.Equal(got, want) {
			t.Fatalf("activations at +%d: output differs from the aligned run", misalign)
		}
	}
}

// TestFFTKernelBitExactAgainstSerialReference runs fft512 on both sides of
// the fan-out threshold and compares with one fft.Transform per signal on
// copies made through the cudart byte helpers — bit for bit, NaN payloads
// included.
func TestFFTKernelBitExactAgainstSerialReference(t *testing.T) {
	ctx := openContext(t, newDevice())
	for _, batch := range []int{1, 2048} {
		for dir, d := range []fft.Direction{fft.Forward, fft.Inverse} {
			t.Run(fmt.Sprintf("batch%d/dir%d", batch, dir), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(batch + dir)))
				signal := make([]complex64, batch*fft.Points)
				for i := range signal {
					signal[i] = complex(rng.Float32()*2-1, rng.Float32()*2-1)
				}
				signal[3] = complex(float32(math.Inf(1)), 0) // poisons one transform with NaNs
				data := cudart.Complex64Bytes(signal)
				ptr, err := ctx.Malloc(uint32(len(data)))
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = ctx.Free(ptr) }()
				if err := ctx.CopyToDevice(ptr, data); err != nil {
					t.Fatal(err)
				}
				if err := ctx.Launch(FFTKernel, gpu.Dim3{X: uint32(batch)}, gpu.Dim3{X: 64}, 0,
					gpu.PackParams(ptr, uint32(batch), uint32(dir))); err != nil {
					t.Fatal(err)
				}
				got, err := ctx.CopyToHost(ptr, uint32(len(data)))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < batch; i++ {
					if err := fft.Transform(d, signal[i*fft.Points:(i+1)*fft.Points]); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got, cudart.Complex64Bytes(signal)) {
					t.Fatal("fft512 output differs from the serial reference")
				}
			})
		}
	}
}

// TestConcurrentLaunchesShareNoScratch launches from several contexts of
// one device at once, each on its own data, and checks every result: pooled
// launch frames and staging areas must never be visible to two launches.
// Run under -race (make race) it also checks the pools' synchronization.
func TestConcurrentLaunchesShareNoScratch(t *testing.T) {
	dev := newDevice()
	const workers, rounds, m = 6, 40, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ctx := openContext(t, dev)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			stream, err := ctx.StreamCreate()
			if err != nil {
				t.Error(err)
				return
			}
			var ptrs [3]uint32
			for i := range ptrs {
				if ptrs[i], err = ctx.Malloc(4 * m * m); err != nil {
					t.Error(err)
					return
				}
			}
			sig, err := ctx.Malloc(fft.BytesPerTransform)
			if err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < rounds; r++ {
				a, b := seededFloats(rng, m*m), seededFloats(rng, m*m)
				_ = ctx.CopyToDevice(ptrs[0], cudart.Float32Bytes(a))
				_ = ctx.CopyToDevice(ptrs[1], cudart.Float32Bytes(b))
				params := gpu.PackParams(ptrs[0], ptrs[1], ptrs[2], m)
				if r%2 == 0 {
					err = ctx.Launch(SgemmKernel, gpu.Dim3{X: 1}, gpu.Dim3{X: 16, Y: 16}, 0, params)
				} else {
					err = ctx.LaunchAsync(SgemmKernel, gpu.Dim3{X: 1}, gpu.Dim3{X: 16, Y: 16}, 0, params, stream)
				}
				if err != nil {
					t.Error(err)
					return
				}
				got, err := ctx.CopyToHost(ptrs[2], 4*m*m)
				if err != nil {
					t.Error(err)
					return
				}
				want := make([]float32, m*m)
				_ = blas.Sgemm(m, m, m, a, b, want)
				if !bytes.Equal(got, cudart.Float32Bytes(want)) {
					t.Errorf("worker %d round %d: sgemm result corrupted", w, r)
					return
				}

				x := make([]complex64, fft.Points)
				for i := range x {
					x[i] = complex(rng.Float32(), rng.Float32())
				}
				_ = ctx.CopyToDevice(sig, cudart.Complex64Bytes(x))
				if err := ctx.Launch(FFTKernel, gpu.Dim3{X: 1}, gpu.Dim3{X: 64}, 0, gpu.PackParams(sig, 1, 0)); err != nil {
					t.Error(err)
					return
				}
				gotF, err := ctx.CopyToHost(sig, fft.BytesPerTransform)
				if err != nil {
					t.Error(err)
					return
				}
				_ = fft.Transform(fft.Forward, x)
				if !bytes.Equal(gotF, cudart.Complex64Bytes(x)) {
					t.Errorf("worker %d round %d: fft result corrupted", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLaunchAllocationGate is the deterministic CI gate of the launch fast
// path: a steady-state 16×16 sgemmNN launch, synchronous or on a stream,
// allocates nothing between the caller and the arithmetic — the kernel
// gets its ExecContext by value, operands are resolved from the context's
// own table and computed on in place, and the modeled time is remembered
// per size. Launches that alternate 16×16 and 32×32 products hold the
// remembered cost to the same 0.
func TestLaunchAllocationGate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ctx := openContext(t, newDevice())
	const m, big = 16, 32
	var ptrs [3]uint32
	for i := range ptrs {
		p, err := ctx.Malloc(4 * big * big)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	stream, err := ctx.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	params := gpu.PackParams(ptrs[0], ptrs[1], ptrs[2], m)
	bigParams := gpu.PackParams(ptrs[0], ptrs[1], ptrs[2], big)
	grid, block := gpu.Dim3{X: 1, Y: 1}, gpu.Dim3{X: m, Y: m}
	var lerr error
	var flip bool
	alternate := func() []byte {
		flip = !flip
		if flip {
			return bigParams
		}
		return params
	}
	gates := map[string]func(){
		"Launch": func() {
			if err := ctx.Launch(SgemmKernel, grid, block, 0, params); err != nil {
				lerr = err
			}
		},
		"LaunchAsync": func() {
			if err := ctx.LaunchAsync(SgemmKernel, grid, block, 0, params, stream); err != nil {
				lerr = err
			}
		},
		"Launch alternating m=16/32": func() {
			if err := ctx.Launch(SgemmKernel, grid, block, 0, alternate()); err != nil {
				lerr = err
			}
		},
		"LaunchAsync alternating m=16/32": func() {
			if err := ctx.LaunchAsync(SgemmKernel, grid, block, 0, alternate(), stream); err != nil {
				lerr = err
			}
		},
	}
	for name, launch := range gates {
		launch() // warm the pools and both sizes' costs
		launch()
		if got := testing.AllocsPerRun(200, launch); got != 0 {
			t.Errorf("%s of sgemm allocates %.0f times per launch, want 0", name, got)
		}
	}
	if lerr != nil {
		t.Fatal(lerr)
	}
}

// BenchmarkLaunchSgemm16 is the in-repo witness of the wall-clock
// benchmark's gpu.launch_sgemm16_ns: one 16×16 sgemmNN launch, the unit an
// inference request repeats 24 times. "inplace" is a synchronous Launch on
// operands where cudaMalloc puts them; "staged" has C one byte off, which is
// the path every launch took before kernels computed on device memory in
// place; "async" is "inplace" as LaunchAsync on a stream, the call the
// server makes for a batched request. Medians of five alternating runs on a
// 2-vCPU Xeon (Sapphire Rapids, 2.0 GHz, go1.24), launches that took the
// context's lock five times, kept a launch frame and evaluated the cost
// model per launch → two locks, no frame, a remembered cost (DESIGN.md
// section 22, "A launch's bookkeeping"): inplace 920 → 760 ns, staged
// 2 070 → 2 020 ns, async 860 → 580 ns; absolute figures drift from day to
// day, so compare alternated runs. gpu.BenchmarkLaunchDispatch, a kernel
// that does nothing, is the 140 ns floor under all three.
func BenchmarkLaunchSgemm16(b *testing.B) {
	ctx := openContext(b, newDevice())
	const m = 16
	var ptrs [3]uint32
	for i := range ptrs {
		p, err := ctx.Malloc(4*m*m + 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := ctx.CopyToDevice(p, cudart.Float32Bytes(seededFloats(rand.New(rand.NewSource(int64(i))), m*m))); err != nil {
			b.Fatal(err)
		}
		ptrs[i] = p
	}
	stream, err := ctx.StreamCreate()
	if err != nil {
		b.Fatal(err)
	}
	grid, block := gpu.Dim3{X: 1, Y: 1}, gpu.Dim3{X: m, Y: m}
	for _, c := range []struct {
		name  string
		cOff  uint32
		async bool
	}{{"inplace", 0, false}, {"staged", 1, false}, {"async", 0, true}} {
		params := gpu.PackParams(ptrs[0], ptrs[1], ptrs[2]+c.cOff, m)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if c.async {
					err = ctx.LaunchAsync(SgemmKernel, grid, block, 0, params, stream)
				} else {
					err = ctx.Launch(SgemmKernel, grid, block, 0, params)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
