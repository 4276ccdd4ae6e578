package rcuda

import (
	"errors"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/fft"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/vclock"
)

// The client must satisfy the extended runtime interface.
var _ cudart.AsyncRuntime = (*Client)(nil)

func TestRemoteStreamsAndEvents(t *testing.T) {
	client, _, _, cleanup := startSimSession(t, netsim.IB40G())
	defer cleanup()

	s, err := client.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	if s == 0 {
		t.Fatal("stream handle must be non-zero")
	}
	start, err := client.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	end, err := client.EventCreate()
	if err != nil {
		t.Fatal(err)
	}

	// A tiny async GEMM pipeline on the remote GPU.
	const m = 16
	nbytes := uint32(4 * m * m)
	aPtr, _ := client.Malloc(nbytes)
	bPtr, _ := client.Malloc(nbytes)
	cPtr, _ := client.Malloc(nbytes)
	a := make([]float32, m*m)
	b := make([]float32, m*m)
	for i := range a {
		a[i], b[i] = 1, 2
	}
	if err := client.EventRecord(start, s); err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDeviceAsync(aPtr, cudart.Float32Bytes(a), s); err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDeviceAsync(bPtr, cudart.Float32Bytes(b), s); err != nil {
		t.Fatal(err)
	}
	if err := client.LaunchAsync(kernels.SgemmKernel, cudart.Dim3{X: 1}, cudart.Dim3{X: 16}, 0,
		gpu.PackParams(uint32(aPtr), uint32(bPtr), uint32(cPtr), m), s); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, nbytes)
	if err := client.MemcpyToHostAsync(out, cPtr, s); err != nil {
		t.Fatal(err)
	}
	if err := client.EventRecord(end, s); err != nil {
		t.Fatal(err)
	}
	if err := client.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	elapsed, err := client.EventElapsed(start, end)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatalf("elapsed %v must be positive", elapsed)
	}
	// All-ones times all-twos: every C element is 2m.
	for i, v := range cudart.BytesFloat32(out) {
		if v != 2*m {
			t.Fatalf("C[%d] = %g, want %d", i, v, 2*m)
		}
	}
	if err := client.EventDestroy(start); err != nil {
		t.Fatal(err)
	}
	if err := client.EventDestroy(end); err != nil {
		t.Fatal(err)
	}
	if err := client.StreamDestroy(s); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteAsyncErrors(t *testing.T) {
	client, _, _, cleanup := startSimSession(t, netsim.IB40G())
	defer cleanup()

	if err := client.StreamSynchronize(42); !errors.Is(err, cudart.ErrorInvalidValue) {
		t.Fatalf("bad remote stream sync = %v", err)
	}
	if err := client.StreamDestroy(0); !errors.Is(err, cudart.ErrorInvalidValue) {
		t.Fatalf("destroying remote default stream = %v", err)
	}
	if err := client.EventRecord(42, 0); !errors.Is(err, cudart.ErrorInvalidValue) {
		t.Fatalf("bad remote event record = %v", err)
	}
	if _, err := client.EventElapsed(5, 6); !errors.Is(err, cudart.ErrorInvalidValue) {
		t.Fatalf("bad remote elapsed = %v", err)
	}
	if err := client.MemcpyToDeviceAsync(0, []byte{1}, 0); !errors.Is(err, cudart.ErrorInvalidDevicePointer) {
		t.Fatalf("bad remote async memcpy = %v", err)
	}
}

// Double buffering on the server device: with two streams, the PCIe copies
// of one FFT chunk overlap the kernel of the other, so the device-side
// makespan is shorter than the serialized sum.
func TestRemoteDoubleBufferingOverlaps(t *testing.T) {
	const batch = 64 // per chunk
	chunkBytes := uint32(batch * fft.BytesPerTransform)

	run := func(streams bool) time.Duration {
		client, _, clk, cleanup := startSimSessionFFT(t)
		defer cleanup()
		ptrs := []cudart.DevicePtr{}
		for i := 0; i < 2; i++ {
			p, err := client.Malloc(chunkBytes)
			if err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
		}
		data := make([]byte, chunkBytes)
		before := clk.Now()
		if streams {
			s1, _ := client.StreamCreate()
			s2, _ := client.StreamCreate()
			for i, s := range []cudart.Stream{s1, s2} {
				if err := client.MemcpyToDeviceAsync(ptrs[i], data, s); err != nil {
					t.Fatal(err)
				}
				if err := client.LaunchAsync(kernels.FFTKernel, cudart.Dim3{X: batch}, cudart.Dim3{X: 64}, 0,
					gpu.PackParams(uint32(ptrs[i]), batch, 0), s); err != nil {
					t.Fatal(err)
				}
			}
			if err := client.DeviceSynchronize(); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := 0; i < 2; i++ {
				if err := client.MemcpyToDevice(ptrs[i], data); err != nil {
					t.Fatal(err)
				}
				if err := client.Launch(kernels.FFTKernel, cudart.Dim3{X: batch}, cudart.Dim3{X: 64}, 0,
					gpu.PackParams(uint32(ptrs[i]), batch, 0)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return clk.Now() - before
	}

	sync := run(false)
	async := run(true)
	if async >= sync {
		t.Fatalf("double-buffered run (%v) should beat the serialized run (%v)", async, sync)
	}
}

// startSimSessionFFT mirrors startSimSession with the FFT module loaded.
func startSimSessionFFT(t *testing.T) (*Client, *gpu.Device, *vclock.Sim, func()) {
	t.Helper()
	d, dev, clk := simDaemon(netsim.IB40G())
	client, cleanup := openOn(t, d, moduleImage(t, calib.FFT))
	return client, dev, clk, cleanup
}

func TestRemoteQueries(t *testing.T) {
	client, _, clk, cleanup := startSimSessionFFT(t)
	defer cleanup()

	s, err := client.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	e, err := client.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.StreamQuery(s); err != nil {
		t.Fatalf("idle stream query = %v, want nil", err)
	}
	// Queue a kernel and record an event behind it.
	const batch = 64
	ptr, _ := client.Malloc(batch * fft.BytesPerTransform)
	if err := client.MemcpyToDeviceAsync(ptr, make([]byte, batch*fft.BytesPerTransform), s); err != nil {
		t.Fatal(err)
	}
	if err := client.LaunchAsync(kernels.FFTKernel, cudart.Dim3{X: batch}, cudart.Dim3{X: 64}, 0,
		gpu.PackParams(uint32(ptr), batch, 0), s); err != nil {
		t.Fatal(err)
	}
	if err := client.EventRecord(e, s); err != nil {
		t.Fatal(err)
	}
	if err := client.StreamQuery(s); !errors.Is(err, cudart.ErrorNotReady) {
		t.Fatalf("busy stream query = %v, want cudaErrorNotReady", err)
	}
	if err := client.EventQuery(e); !errors.Is(err, cudart.ErrorNotReady) {
		t.Fatalf("pending event query = %v, want cudaErrorNotReady", err)
	}
	// Let virtual time pass the queued work; queries flip to success.
	clk.Sleep(calib.KernelTime(calib.FFT, batch) + calib.PCIeTime(calib.FFT, batch))
	if err := client.StreamQuery(s); err != nil {
		t.Fatalf("drained stream query = %v, want nil", err)
	}
	if err := client.EventQuery(e); err != nil {
		t.Fatalf("fired event query = %v, want nil", err)
	}
	// Bad handles.
	if err := client.StreamQuery(42); !errors.Is(err, cudart.ErrorInvalidValue) {
		t.Fatalf("bad stream query = %v", err)
	}
	if err := client.EventQuery(42); !errors.Is(err, cudart.ErrorInvalidValue) {
		t.Fatalf("bad event query = %v", err)
	}
}
