package cudart

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/gpu"
	"rcuda/internal/raceflag"
	"rcuda/internal/vclock"
)

func testModule(t *testing.T, name string) *gpu.Module {
	t.Helper()
	return &gpu.Module{
		Name:       name,
		BinarySize: 128,
		Kernels: []*gpu.Kernel{{
			Name: name + "_scale2",
			Run: func(ec gpu.ExecContext) (time.Duration, error) {
				ptr, err := ec.Params.U32()
				if err != nil {
					return 0, err
				}
				n, err := ec.Params.U32()
				if err != nil {
					return 0, err
				}
				mem, err := ec.Mem(ptr, uint64(n)*4)
				if err != nil {
					return 0, err
				}
				xs := BytesFloat32(mem)
				for i := range xs {
					xs[i] *= 2
				}
				copy(mem, Float32Bytes(xs))
				return time.Millisecond, nil
			},
		}},
	}
}

func openTest(t *testing.T, name string, opts ...LocalOption) (*Local, *vclock.Sim) {
	t.Helper()
	clk := vclock.NewSim()
	dev := gpu.New(gpu.Config{Clock: clk})
	rt, err := OpenLocal(dev, testModule(t, name), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rt, clk
}

func TestLocalLifecycle(t *testing.T) {
	rt, _ := openTest(t, "lifecycle")
	defer rt.Close()

	in := []float32{1, 2, 3, 4.5}
	buf, err := rt.Malloc(uint32(4 * len(in)))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.MemcpyToDevice(buf, Float32Bytes(in)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Launch("lifecycle_scale2", Dim3{X: 1}, Dim3{X: 4}, 0,
		gpu.PackParams(uint32(buf), uint32(len(in)))); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*len(in))
	if err := rt.MemcpyToHost(out, buf); err != nil {
		t.Fatal(err)
	}
	for i, v := range BytesFloat32(out) {
		if v != in[i]*2 {
			t.Fatalf("element %d = %g, want %g", i, v, in[i]*2)
		}
	}
	if err := rt.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Free(buf); err != nil {
		t.Fatal(err)
	}
}

func TestOpenLocalPaysInit(t *testing.T) {
	clk := vclock.NewSim()
	dev := gpu.New(gpu.Config{Clock: clk})
	rt, err := OpenLocal(dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if clk.Now() != calib.ContextInit {
		t.Fatalf("cold open cost %v, want %v", clk.Now(), calib.ContextInit)
	}
}

func TestOpenLocalPreinitialized(t *testing.T) {
	clk := vclock.NewSim()
	dev := gpu.New(gpu.Config{Clock: clk})
	rt, err := OpenLocal(dev, nil, Preinitialized())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if clk.Now() != 0 {
		t.Fatalf("preinitialized open cost %v, want 0", clk.Now())
	}
}

func TestErrorCodesSurface(t *testing.T) {
	rt, _ := openTest(t, "errorcodes")
	defer rt.Close()

	if _, err := rt.Malloc(0); !errors.Is(err, ErrorInvalidValue) {
		t.Fatalf("Malloc(0) = %v, want cudaErrorInvalidValue", err)
	}
	if err := rt.Free(DevicePtr(12345)); !errors.Is(err, ErrorInvalidDevicePointer) {
		t.Fatalf("bad Free = %v, want cudaErrorInvalidDevicePointer", err)
	}
	if err := rt.MemcpyToDevice(0, []byte{1}); !errors.Is(err, ErrorInvalidDevicePointer) {
		t.Fatalf("null memcpy = %v, want cudaErrorInvalidDevicePointer", err)
	}
	if err := rt.Launch("missing", Dim3{}, Dim3{}, 0, nil); !errors.Is(err, ErrorLaunchFailure) {
		t.Fatalf("unknown kernel = %v, want cudaErrorLaunchFailure", err)
	}
}

func TestOutOfMemorySurfaces(t *testing.T) {
	clk := vclock.NewSim()
	dev := gpu.New(gpu.Config{Clock: clk, MemoryBytes: 1 << 16})
	rt, err := OpenLocal(dev, nil, Preinitialized())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := rt.Malloc(1 << 20); !errors.Is(err, ErrorMemoryAllocation) {
		t.Fatalf("oversized Malloc = %v, want cudaErrorMemoryAllocation", err)
	}
}

func TestUseAfterClose(t *testing.T) {
	rt, _ := openTest(t, "useafterclose")
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Malloc(64); !errors.Is(err, ErrorInitialization) {
		t.Fatalf("Malloc after Close = %v, want cudaErrorInitializationError", err)
	}
}

func TestCapability(t *testing.T) {
	rt, _ := openTest(t, "capability")
	defer rt.Close()
	maj, min := rt.Capability()
	if maj != 1 || min != 3 {
		t.Fatalf("capability %d.%d, want 1.3", maj, min)
	}
}

func TestErrorStringsAndCodes(t *testing.T) {
	if Success.String() != "cudaSuccess" {
		t.Fatal("Success name")
	}
	if ErrorMemoryAllocation.Error() != "cudaErrorMemoryAllocation" {
		t.Fatal("OOM name")
	}
	if Error(250).String() != "cudaError(250)" {
		t.Fatal("unknown code formatting")
	}
	if Success.AsError() != nil {
		t.Fatal("Success.AsError must be nil")
	}
	if ErrorInvalidValue.AsError() == nil {
		t.Fatal("failure codes must be non-nil errors")
	}
	if Code(nil) != Success {
		t.Fatal("Code(nil)")
	}
	if Code(ErrorLaunchFailure) != ErrorLaunchFailure {
		t.Fatal("Code(Error) identity")
	}
	if Code(errors.New("boom")) != ErrorUnknown {
		t.Fatal("foreign errors must map to cudaErrorUnknown")
	}
}

func TestFloat32RoundTrip(t *testing.T) {
	in := []float32{0, 1, -1, 3.14159, float32(math.Inf(1)), float32(math.SmallestNonzeroFloat32)}
	out := BytesFloat32(Float32Bytes(in))
	if len(out) != len(in) {
		t.Fatalf("length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if math.Float32bits(out[i]) != math.Float32bits(in[i]) {
			t.Fatalf("element %d: %g != %g", i, out[i], in[i])
		}
	}
}

func TestFloat32RoundTripProperty(t *testing.T) {
	f := func(xs []float32) bool {
		got := BytesFloat32(Float32Bytes(xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if math.Float32bits(got[i]) != math.Float32bits(xs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: memcpy round trips through the Runtime preserve arbitrary
// payloads.
func TestRuntimeMemcpyProperty(t *testing.T) {
	rt, _ := openTest(t, "memcpyprop")
	defer rt.Close()
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		ptr, err := rt.Malloc(uint32(len(data)))
		if err != nil {
			return false
		}
		defer func() { _ = rt.Free(ptr) }()
		if rt.MemcpyToDevice(ptr, data) != nil {
			return false
		}
		out := make([]byte, len(data))
		if rt.MemcpyToHost(out, ptr) != nil {
			return false
		}
		for i := range data {
			if out[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorStringTable(t *testing.T) {
	want := map[Error]string{
		Success:                   "cudaSuccess",
		ErrorMissingConfiguration: "cudaErrorMissingConfiguration",
		ErrorMemoryAllocation:     "cudaErrorMemoryAllocation",
		ErrorInitialization:       "cudaErrorInitializationError",
		ErrorLaunchFailure:        "cudaErrorLaunchFailure",
		ErrorInvalidConfiguration: "cudaErrorInvalidConfiguration",
		ErrorInvalidValue:         "cudaErrorInvalidValue",
		ErrorInvalidDevicePointer: "cudaErrorInvalidDevicePointer",
		ErrorNotReady:             "cudaErrorNotReady",
		ErrorUnknown:              "cudaErrorUnknown",
	}
	for code, name := range want {
		if got := code.String(); got != name {
			t.Fatalf("Error(%d).String() = %q, want %q", uint32(code), got, name)
		}
	}
}

func TestComplex64BytesRoundTrip(t *testing.T) {
	in := []complex64{0, 1i, complex(3.5, -2.25), complex(float32(math.Inf(1)), 0)}
	got := BytesComplex64(Complex64Bytes(in))
	if len(got) != len(in) {
		t.Fatalf("length %d, want %d", len(got), len(in))
	}
	for i := range in {
		if math.Float32bits(real(got[i])) != math.Float32bits(real(in[i])) ||
			math.Float32bits(imag(got[i])) != math.Float32bits(imag(in[i])) {
			t.Fatalf("element %d: %v != %v", i, got[i], in[i])
		}
	}
}

func TestComplex64BytesProperty(t *testing.T) {
	f := func(pairs []float32) bool {
		if len(pairs)%2 == 1 {
			pairs = pairs[:len(pairs)-1]
		}
		in := make([]complex64, len(pairs)/2)
		for i := range in {
			in[i] = complex(pairs[2*i], pairs[2*i+1])
		}
		got := BytesComplex64(Complex64Bytes(in))
		if len(got) != len(in) {
			return false
		}
		for i := range in {
			if math.Float32bits(real(got[i])) != math.Float32bits(real(in[i])) ||
				math.Float32bits(imag(got[i])) != math.Float32bits(imag(in[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLocalMemcpyToHostStagesNothing: the local device-to-host copy moves
// device memory into the caller's buffer once, with no buffer of its own,
// and charges the clock the one modeled PCIe transfer it always did.
func TestLocalMemcpyToHostStagesNothing(t *testing.T) {
	rt, clk := openTest(t, "d2h_direct")
	defer rt.Close()
	const n = 1 << 20
	ptr, err := rt.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := rt.MemcpyToDevice(ptr, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, n)
	before := clk.Now()
	if err := rt.MemcpyToHost(dst, ptr); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Now()-before, calib.PCIeTransfer(n); got != want {
		t.Fatalf("copy charged %v, want one PCIe transfer of %v", got, want)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("copy diverged")
	}
	if raceflag.Enabled {
		return
	}
	if got := testing.AllocsPerRun(20, func() { _ = rt.MemcpyToHost(dst, ptr) }); got != 0 {
		t.Fatalf("MemcpyToHost allocates %v times, want 0", got)
	}
}

// TestLocalMemcpyToHostAsyncStagesNothing is the async twin: a copy queued
// on a stream moves device memory into the caller's buffer once, with no
// buffer of its own, and books its one PCIe transfer on the stream instead
// of the clock; on the default stream it is the synchronous copy.
func TestLocalMemcpyToHostAsyncStagesNothing(t *testing.T) {
	rt, clk := openTest(t, "d2h_async_direct")
	defer rt.Close()
	const n = 1 << 20
	ptr, err := rt.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 13)
	}
	if err := rt.MemcpyToDevice(ptr, src); err != nil {
		t.Fatal(err)
	}
	s, err := rt.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	pcie := calib.PCIeTransfer(n)
	dst := make([]byte, n)
	before := clk.Now()
	if err := rt.MemcpyToHostAsync(dst, ptr, s); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != before {
		t.Fatal("a queued copy advanced the clock at issue")
	}
	if err := rt.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now() - before; got != pcie {
		t.Fatalf("queued copy charged %v on sync, want one PCIe transfer of %v", got, pcie)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("queued copy diverged")
	}
	clear(dst)
	before = clk.Now()
	if err := rt.MemcpyToHostAsync(dst, ptr, 0); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now() - before; got != pcie || !bytes.Equal(dst, src) {
		t.Fatalf("default-stream copy charged %v (want %v) or diverged", got, pcie)
	}
	if err := rt.MemcpyToHostAsync(dst[:4], ptr, 99); !errors.Is(err, ErrorInvalidValue) {
		t.Fatalf("copy on an unknown stream = %v, want cudaErrorInvalidValue", err)
	}
	if raceflag.Enabled {
		return
	}
	if got := testing.AllocsPerRun(20, func() { _ = rt.MemcpyToHostAsync(dst, ptr, s) }); got != 0 {
		t.Fatalf("MemcpyToHostAsync allocates %v times, want 0", got)
	}
}

func TestMapErrorTable(t *testing.T) {
	cases := map[error]Error{
		gpu.ErrOutOfMemory:      ErrorMemoryAllocation,
		gpu.ErrZeroSize:         ErrorInvalidValue,
		gpu.ErrInvalidDevPtr:    ErrorInvalidDevicePointer,
		gpu.ErrUnknownKernel:    ErrorLaunchFailure,
		gpu.ErrInvalidLaunch:    ErrorInvalidConfiguration,
		gpu.ErrInvalidStream:    ErrorInvalidValue,
		gpu.ErrInvalidEvent:     ErrorInvalidValue,
		gpu.ErrContextDestroyed: ErrorInitialization,
		gpu.ErrUnknownModule:    ErrorInitialization,
		errors.New("anything"):  ErrorUnknown,
	}
	for in, want := range cases {
		if got := MapError(fmt.Errorf("wrapped: %w", in)); got != error(want) {
			t.Fatalf("MapError(%v) = %v, want %v", in, got, want)
		}
	}
	if MapError(nil) != nil {
		t.Fatal("nil must stay nil")
	}
	// Pre-mapped cudart errors pass through unchanged.
	if MapError(ErrorInvalidValue) != error(ErrorInvalidValue) {
		t.Fatal("cudart errors must pass through")
	}
}
