package kernels

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/vclock"
)

func openJacobi(t *testing.T) (*cudart.Local, *vclock.Sim) {
	t.Helper()
	clk := vclock.NewSim()
	dev := gpu.New(gpu.Config{Clock: clk})
	mod, err := gpu.LookupModule(JacobiModule)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cudart.OpenLocal(dev, mod, cudart.Preinitialized())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt, clk
}

func TestJacobiModuleImage(t *testing.T) {
	img, err := JacobiModuleImage()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != jacobiModuleBytes {
		t.Fatalf("image %d bytes, want %d", len(img), jacobiModuleBytes)
	}
	if _, err := gpu.ResolveModule(img); err != nil {
		t.Fatal(err)
	}
}

func TestJacobiStepMatchesCPU(t *testing.T) {
	rt, _ := openJacobi(t)
	const w, h = 17, 13
	rng := rand.New(rand.NewSource(1))
	grid := make([]float32, w*h)
	for i := range grid {
		grid[i] = rng.Float32()
	}
	bytes := uint32(4 * w * h)
	src, _ := rt.Malloc(bytes)
	dst, _ := rt.Malloc(bytes)
	if err := rt.MemcpyToDevice(src, cudart.Float32Bytes(grid)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch(JacobiKernel, cudart.Dim3{X: 2, Y: 2}, cudart.Dim3{X: 16, Y: 16}, 0,
		gpu.PackParams(uint32(src), uint32(dst), w, h)); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, bytes)
	if err := rt.MemcpyToHost(out, dst); err != nil {
		t.Fatal(err)
	}
	want := JacobiCPU(grid, w, h)
	for i, v := range cudart.BytesFloat32(out) {
		if math.Abs(float64(v-want[i])) > 1e-6 {
			t.Fatalf("cell %d = %g, want %g", i, v, want[i])
		}
	}
}

// TestJacobiAliasedOperands is TestSgemmKernelAliasedOperands for the
// stencil: whatever the placement of src and dst in one allocation — byte-
// misaligned, partially overlapping (only src == dst is refused), ending on
// the allocation's last byte — the step reads the grid as it was at launch
// and only then writes, bit for bit what the host computes from a snapshot.
func TestJacobiAliasedOperands(t *testing.T) {
	ctx := openContext(t, newDevice())
	mod, err := gpu.LookupModule(JacobiModule)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	const w, h = 9, 7
	const grid = 4 * w * h // bytes per grid
	rng := rand.New(rand.NewSource(12))
	image := append(cudart.Float32Bytes(seededFloats(rng, 3*w*h)), 0x3f, 0x80, 0x7f)
	cases := []struct {
		name           string
		srcOff, dstOff uint32
	}{
		{"disjoint", 0, grid},
		{"src at +1", 1, grid + 4},
		{"src at +2", 2, grid + 4},
		{"src at +3", 3, grid + 4},
		{"dst at +1", 0, grid + 1},
		{"dst at +2", 0, grid + 2},
		{"dst at +3", 0, grid + 3},
		{"both at +1", 1, grid + 1},
		{"first cell of dst is the last of src", 0, grid - 4},
		{"last cell of dst is the first of src", grid, 4},
		{"dst one row below src", 0, 4 * w},
		{"dst one cell after src", 0, 4},
		{"overlapping and unaligned", 0, grid/2 + 1},
		{"dst ends on the last aligned byte", 0, 2 * grid},
		{"src ends on the last aligned byte", 2 * grid, 0},
		{"dst at +3 ends on the last byte of the allocation", 0, 2*grid + 3},
		{"src at +3 ends on the last byte of the allocation", 2*grid + 3, grid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, err := ctx.Malloc(uint32(len(image)))
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ctx.Free(base) }()
			if err := ctx.CopyToDevice(base, image); err != nil {
				t.Fatal(err)
			}
			if err := ctx.Launch(JacobiKernel, gpu.Dim3{X: 1, Y: 1}, gpu.Dim3{X: 16, Y: 16}, 0,
				gpu.PackParams(base+tc.srcOff, base+tc.dstOff, w, h)); err != nil {
				t.Fatal(err)
			}
			got, err := ctx.CopyToHost(base, uint32(len(image)))
			if err != nil {
				t.Fatal(err)
			}
			step := JacobiCPU(cudart.BytesFloat32(image[tc.srcOff:tc.srcOff+grid]), w, h)
			want := append([]byte(nil), image...)
			copy(want[tc.dstOff:], cudart.Float32Bytes(step))
			if !bytes.Equal(got, want) {
				t.Fatal("device memory differs from snapshot-then-write")
			}
		})
	}
}

func TestJacobiConvergesToLaplaceSolution(t *testing.T) {
	// With boundary 0 everywhere except one hot edge, repeated Jacobi
	// steps approach the harmonic solution; after many iterations the
	// residual between successive steps must shrink.
	rt, _ := openJacobi(t)
	const w, h = 16, 16
	grid := make([]float32, w*h)
	for j := 0; j < w; j++ {
		grid[j] = 100 // hot top edge
	}
	bytes := uint32(4 * w * h)
	a, _ := rt.Malloc(bytes)
	b, _ := rt.Malloc(bytes)
	if err := rt.MemcpyToDevice(a, cudart.Float32Bytes(grid)); err != nil {
		t.Fatal(err)
	}
	// The ping-pong target must hold the same boundary.
	if err := rt.MemcpyToDevice(b, cudart.Float32Bytes(grid)); err != nil {
		t.Fatal(err)
	}
	src, dst := a, b
	for iter := 0; iter < 200; iter++ {
		if err := rt.Launch(JacobiKernel, cudart.Dim3{X: 1}, cudart.Dim3{X: 256}, 0,
			gpu.PackParams(uint32(src), uint32(dst), w, h)); err != nil {
			t.Fatal(err)
		}
		src, dst = dst, src
	}
	out := make([]byte, bytes)
	if err := rt.MemcpyToHost(out, src); err != nil {
		t.Fatal(err)
	}
	final := cudart.BytesFloat32(out)
	// Interior center should have warmed well above zero but stay below
	// the hot edge.
	center := final[(h/2)*w+w/2]
	if center <= 1 || center >= 100 {
		t.Fatalf("center after 200 iterations = %g, want within (1, 100)", center)
	}
	// Monotone vertical gradient away from the hot edge at the middle
	// column (harmonic functions have no interior extrema).
	col := w / 2
	for i := 1; i < h-1; i++ {
		if final[i*w+col] > final[(i-1)*w+col]+1e-3 {
			t.Fatalf("temperature rises away from the hot edge at row %d", i)
		}
	}
}

func TestJacobiCostIsMemoryBound(t *testing.T) {
	rt, clk := openJacobi(t)
	const w, h = 512, 512
	bytes := uint32(4 * w * h)
	src, _ := rt.Malloc(bytes)
	dst, _ := rt.Malloc(bytes)
	_ = rt.MemcpyToDevice(src, make([]byte, bytes))
	before := clk.Now()
	if err := rt.Launch(JacobiKernel, cudart.Dim3{X: 32, Y: 32}, cudart.Dim3{X: 16, Y: 16}, 0,
		gpu.PackParams(uint32(src), uint32(dst), w, h)); err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now() - before
	// 3 sweeps of 1 MiB at ~73 GB/s ≈ 40 µs; well under a millisecond.
	if elapsed <= 0 || elapsed > time.Millisecond {
		t.Fatalf("jacobi cost %v out of the memory-bound range", elapsed)
	}
}

func TestJacobiParamErrors(t *testing.T) {
	rt, _ := openJacobi(t)
	buf, _ := rt.Malloc(64)
	if err := rt.Launch(JacobiKernel, cudart.Dim3{}, cudart.Dim3{}, 0,
		gpu.PackParams(uint32(buf), uint32(buf), 4, 4)); err == nil {
		t.Fatal("aliased ping-pong buffers must fail")
	}
	if err := rt.Launch(JacobiKernel, cudart.Dim3{}, cudart.Dim3{}, 0,
		gpu.PackParams(uint32(buf), uint32(buf)+64, 2, 2)); err == nil {
		t.Fatal("tiny grid must fail")
	}
	if err := rt.Launch(JacobiKernel, cudart.Dim3{}, cudart.Dim3{}, 0,
		gpu.PackParams(1, 2)); err == nil {
		t.Fatal("short params must fail")
	}
}

func TestJacobiCPUReference(t *testing.T) {
	in := []float32{
		0, 0, 0,
		0, 8, 0,
		0, 0, 0,
	}
	out := JacobiCPU(in, 3, 3)
	if out[4] != 0 {
		t.Fatalf("center = %g, want average of zero neighbors", out[4])
	}
	in[1] = 4 // top middle
	out = JacobiCPU(in, 3, 3)
	if out[4] != 1 {
		t.Fatalf("center = %g, want 1", out[4])
	}
}
