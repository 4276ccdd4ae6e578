package cudart

import (
	"bytes"
	"errors"
	"testing"

	"rcuda/internal/gpu"
	"rcuda/internal/vclock"
)

// openMultiTest opens a Local over ndev simulated devices sharing one Sim
// clock, with the usual test module loaded.
func openMultiTest(t *testing.T, ndev int, opts ...LocalOption) (*Local, *vclock.Sim) {
	t.Helper()
	clk := vclock.NewSim()
	devs := make([]*gpu.Device, ndev)
	for i := range devs {
		devs[i] = gpu.New(gpu.Config{Clock: clk})
	}
	rt, err := OpenLocal(devs[0], testModule(t, "multi"),
		append([]LocalOption{ExtraDevices(devs[1:]...)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt, clk
}

func TestLocalMultiDeviceCount(t *testing.T) {
	rt, _ := openMultiTest(t, 3)
	n, err := rt.DeviceCount()
	if err != nil || n != 3 {
		t.Fatalf("DeviceCount = %d, %v, want 3", n, err)
	}
	if err := rt.SetDevice(3); !errors.Is(err, ErrorInvalidValue) {
		t.Fatalf("SetDevice(3) = %v, want cudaErrorInvalidValue", err)
	}
	if err := rt.SetDevice(-1); !errors.Is(err, ErrorInvalidValue) {
		t.Fatalf("SetDevice(-1) = %v, want cudaErrorInvalidValue", err)
	}
}

// TestLocalMultiDeviceRouting checks allocations and copies route to the
// selected device and that pointers are per-device, like CUDA contexts:
// a device-0 pointer is invalid on device 1.
func TestLocalMultiDeviceRouting(t *testing.T) {
	rt, _ := openMultiTest(t, 2)
	const n = 64
	p0, err := rt.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.MemcpyToDevice(p0, bytes.Repeat([]byte{0xA0}, n)); err != nil {
		t.Fatal(err)
	}

	if err := rt.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	// The device-0 allocation does not exist in device 1's context.
	if err := rt.Free(p0); !errors.Is(err, ErrorInvalidDevicePointer) {
		t.Fatalf("cross-device Free = %v, want cudaErrorInvalidDevicePointer", err)
	}
	p1, err := rt.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.MemcpyToDevice(p1, bytes.Repeat([]byte{0xB1}, n)); err != nil {
		t.Fatal(err)
	}

	// Each device reads back its own data after switching around.
	if err := rt.SetDevice(0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n)
	if err := rt.MemcpyToHost(got, p0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xA0}, n)) {
		t.Fatal("device 0 data corrupted by device 1 traffic")
	}
	if err := rt.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	if err := rt.MemcpyToHost(got, p1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xB1}, n)) {
		t.Fatal("device 1 data corrupted")
	}
}

// TestLocalMultiDeviceLaunch runs the module's kernel on a non-default
// device, proving SetDevice lazily loads the module into the new context.
func TestLocalMultiDeviceLaunch(t *testing.T) {
	rt, _ := openMultiTest(t, 2)
	if err := rt.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	in := []float32{1, 2, 3, 4}
	ptr, err := rt.Malloc(uint32(4 * len(in)))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.MemcpyToDevice(ptr, Float32Bytes(in)); err != nil {
		t.Fatal(err)
	}
	params := append(Float32Bytes(nil),
		byte(ptr), byte(ptr>>8), byte(ptr>>16), byte(ptr>>24),
		byte(len(in)), 0, 0, 0)
	if err := rt.Launch("multi_scale2", Dim3{X: 1}, Dim3{X: 4}, 0, params); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*len(in))
	if err := rt.MemcpyToHost(out, ptr); err != nil {
		t.Fatal(err)
	}
	for i, x := range BytesFloat32(out) {
		if x != in[i]*2 {
			t.Fatalf("kernel on device 1: out[%d] = %v, want %v", i, x, in[i]*2)
		}
	}
}

// TestLocalMultiDeviceInitDelay checks the lazy context pays the CUDA
// environment initialization delay exactly once per device — and not at all
// under Preinitialized, the daemon's configuration.
func TestLocalMultiDeviceInitDelay(t *testing.T) {
	clk := vclock.NewSim()
	// Every context creation outside Preinitialized pays calib.ContextInit
	// of visible simulated time.
	mk := func() *gpu.Device { return gpu.New(gpu.Config{Clock: clk}) }
	d0, d1 := mk(), mk()
	rt, err := OpenLocal(d0, nil, Preinitialized(), ExtraDevices(d1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	before := clk.Now()
	if err := rt.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	if d := clk.Now() - before; d != 0 {
		t.Fatalf("Preinitialized SetDevice(1) advanced the clock by %v", d)
	}

	rt2, err := OpenLocal(mk(), nil, ExtraDevices(mk()))
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	before = clk.Now()
	if err := rt2.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	first := clk.Now() - before
	if first == 0 {
		t.Fatal("first SetDevice(1) on a cold runtime paid no init delay")
	}
	before = clk.Now()
	if err := rt2.SetDevice(0); err != nil {
		t.Fatal(err)
	}
	if err := rt2.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	if d := clk.Now() - before; d != 0 {
		t.Fatalf("re-selecting an initialized device advanced the clock by %v", d)
	}
}
