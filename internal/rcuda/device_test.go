package rcuda

import (
	"bytes"
	"errors"
	"testing"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/netsim"
	"rcuda/internal/vclock"
)

// startMultiGPUSession serves a daemon owning n devices over a simulated
// pipe and returns the opened client plus the devices.
func startMultiGPUSession(t *testing.T, n int, opts ...ServerOption) (*Client, []*gpu.Device, func()) {
	t.Helper()
	d, devs := multiGPUDaemon(n, opts...)
	client, cleanup := openOn(t, d, moduleImage(t, calib.MM))
	return client, devs, cleanup
}

// multiGPUDaemon serves n simulated devices on one clock over 40GI.
func multiGPUDaemon(n int, opts ...ServerOption) (*SimDaemon, []*gpu.Device) {
	clk := vclock.NewSim()
	devs := make([]*gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.New(gpu.Config{Clock: clk})
	}
	srv := NewServer(devs[0], append([]ServerOption{WithDevices(devs[1:]...)}, opts...)...)
	return NewSimDaemon(srv, netsim.IB40G(), clk, nil), devs
}

func TestDeviceCountAndSelection(t *testing.T) {
	client, devs, cleanup := startMultiGPUSession(t, 3)
	defer cleanup()

	n, err := client.DeviceCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("device count = %d, want 3", n)
	}

	// Allocate twice on device 0, switch to device 2, allocate once.
	p0a, err := client.Malloc(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	p0b, err := client.Malloc(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SetDevice(2); err != nil {
		t.Fatal(err)
	}
	p2, err := client.Malloc(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if devs[0].MemoryInUse() == 0 || devs[2].MemoryInUse() == 0 {
		t.Fatal("allocations must land on the selected devices")
	}
	if devs[1].MemoryInUse() != 0 {
		t.Fatal("device 1 was never selected")
	}
	// Pointers belong to their device's context: p0b's address exists
	// only on device 0, so freeing it while device 2 is current fails.
	if err := client.Free(p0b); !errors.Is(err, cudart.ErrorInvalidDevicePointer) {
		t.Fatalf("cross-device free = %v, want cudaErrorInvalidDevicePointer", err)
	}
	if err := client.Free(p2); err != nil {
		t.Fatal(err)
	}
	if err := client.SetDevice(0); err != nil {
		t.Fatal(err)
	}
	for _, p := range []cudart.DevicePtr{p0a, p0b} {
		if err := client.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if devs[0].MemoryInUse() != 0 || devs[2].MemoryInUse() != 0 {
		t.Fatal("frees must return both devices to zero")
	}
}

func TestSetDeviceOutOfRange(t *testing.T) {
	client, _, cleanup := startMultiGPUSession(t, 2)
	defer cleanup()
	if err := client.SetDevice(2); !errors.Is(err, cudart.ErrorInvalidValue) {
		t.Fatalf("SetDevice(2) = %v, want cudaErrorInvalidValue", err)
	}
	if err := client.SetDevice(-1); !errors.Is(err, cudart.ErrorInvalidValue) {
		t.Fatalf("SetDevice(-1) = %v, want cudaErrorInvalidValue", err)
	}
}

func TestDisconnectReleasesAllDevices(t *testing.T) {
	client, devs, cleanup := startMultiGPUSession(t, 2)
	if _, err := client.Malloc(64); err != nil {
		t.Fatal(err)
	}
	if err := client.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Malloc(64); err != nil {
		t.Fatal(err)
	}
	cleanup()
	for i, d := range devs {
		if d.MemoryInUse() != 0 {
			t.Fatalf("device %d leaked %d bytes after session end", i, d.MemoryInUse())
		}
	}
}

func TestRemoteDeviceProperties(t *testing.T) {
	client, devs, cleanup := startMultiGPUSession(t, 1)
	defer cleanup()
	p, err := client.DeviceProperties()
	if err != nil {
		t.Fatal(err)
	}
	want := devs[0].Properties()
	if p != want {
		t.Fatalf("remote properties %+v, want %+v", p, want)
	}
}

func TestRemoteMemsetAndD2D(t *testing.T) {
	client, _, cleanup := startMultiGPUSession(t, 1)
	defer cleanup()

	const n = 256
	src, _ := client.Malloc(n)
	dst, _ := client.Malloc(n)
	if err := client.Memset(src, 0x5A, n); err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyDeviceToDevice(dst, src, n); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n)
	if err := client.MemcpyToHost(out, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, bytes.Repeat([]byte{0x5A}, n)) {
		t.Fatal("remote memset + D2D produced wrong data")
	}
	// Error paths carry CUDA codes.
	if err := client.Memset(0, 1, 4); !errors.Is(err, cudart.ErrorInvalidDevicePointer) {
		t.Fatalf("remote null memset = %v", err)
	}
	if err := client.MemcpyDeviceToDevice(dst, src, n+1); !errors.Is(err, cudart.ErrorInvalidDevicePointer) {
		t.Fatalf("remote overrun D2D = %v", err)
	}
}

// A D2D copy moves only 16 bytes over the wire regardless of the payload —
// the reason to keep intermediate results on the remote GPU.
func TestD2DWireTraffic(t *testing.T) {
	client, _, conn, cleanup := startBatchSession(t, netsim.GigaE(), nil)
	defer cleanup()

	const n = 8 << 20
	src, _ := client.Malloc(n)
	dst, _ := client.Malloc(n)
	before := conn.Stats().BytesSent
	if err := client.MemcpyDeviceToDevice(dst, src, n); err != nil {
		t.Fatal(err)
	}
	sent := conn.Stats().BytesSent - before
	if sent != 16 {
		t.Fatalf("D2D sent %d bytes over the wire, want 16", sent)
	}
}

func TestSessionSpreadAcrossDevices(t *testing.T) {
	d, devs := multiGPUDaemon(2, WithSessionSpread())
	img := moduleImage(t, calib.MM)
	c1, close1 := openOn(t, d, img)
	c2, _ := openOn(t, d, img)
	defer close1()
	defer c2.Close()
	if _, err := c1.Malloc(64); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Malloc(64); err != nil {
		t.Fatal(err)
	}
	// With spreading, the two sessions' allocations land on different
	// devices without either calling SetDevice.
	if devs[0].MemoryInUse() == 0 || devs[1].MemoryInUse() == 0 {
		t.Fatalf("sessions did not spread: dev0 %d B, dev1 %d B",
			devs[0].MemoryInUse(), devs[1].MemoryInUse())
	}
}

func TestDefaultPlacementIsDeviceZero(t *testing.T) {
	d, devs := multiGPUDaemon(2)
	for i := 0; i < 2; i++ {
		client, cleanup := openOn(t, d, moduleImage(t, calib.MM))
		if _, err := client.Malloc(64); err != nil {
			t.Fatal(err)
		}
		if devs[1].MemoryInUse() != 0 {
			t.Fatal("without spreading, sessions must default to device 0 (CUDA semantics)")
		}
		cleanup()
	}
}
