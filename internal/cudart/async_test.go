package cudart

import (
	"errors"
	"testing"
	"time"

	"rcuda/internal/gpu"
	"rcuda/internal/vclock"
)

// pipelineModule provides a kernel with a 10 ms modeled cost that doubles
// float32 data, for overlap tests.
func pipelineModule(name string) *gpu.Module {
	return &gpu.Module{
		Name:       name,
		BinarySize: 128,
		Kernels: []*gpu.Kernel{{
			Name: name + "_double",
			Run: func(ec *gpu.ExecContext) error {
				ptr, err := ec.Params.U32()
				if err != nil {
					return err
				}
				n, err := ec.Params.U32()
				if err != nil {
					return err
				}
				mem, err := ec.Mem(ptr, uint64(n)*4)
				if err != nil {
					return err
				}
				xs := BytesFloat32(mem)
				for i := range xs {
					xs[i] *= 2
				}
				copy(mem, Float32Bytes(xs))
				return nil
			},
			Cost: func(*gpu.ExecContext) time.Duration { return 10 * time.Millisecond },
		}},
	}
}

func openAsync(t *testing.T, name string) (*Local, *vclock.Sim) {
	t.Helper()
	clk := vclock.NewSim()
	dev := gpu.New(gpu.Config{Clock: clk})
	rt, err := OpenLocal(dev, pipelineModule(name), Preinitialized())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt, clk
}

func TestAsyncRuntimeInterface(t *testing.T) {
	var rt AsyncRuntime = &Local{}
	_ = rt // compile-time assertion that Local satisfies AsyncRuntime
}

func TestLocalStreamPipeline(t *testing.T) {
	rt, clk := openAsync(t, "pipeline")
	in := []float32{1, 2, 3, 4}
	buf, err := rt.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	if err := rt.MemcpyToDeviceAsync(buf, Float32Bytes(in), s); err != nil {
		t.Fatal(err)
	}
	if err := rt.LaunchAsync("pipeline_double", Dim3{X: 1}, Dim3{X: 4}, 0,
		gpu.PackParams(uint32(buf), 4), s); err != nil {
		t.Fatal(err)
	}
	// Nothing synchronized yet: clock unchanged.
	if clk.Now() != before {
		t.Fatal("async pipeline must not advance the clock before synchronization")
	}
	out := make([]byte, 16)
	if err := rt.MemcpyToHostAsync(out, buf, s); err != nil {
		t.Fatal(err)
	}
	if err := rt.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	if clk.Now() <= before+10*time.Millisecond {
		t.Fatal("stream synchronize must account for the kernel cost")
	}
	for i, v := range BytesFloat32(out) {
		if v != in[i]*2 {
			t.Fatalf("element %d = %g, want %g", i, v, in[i]*2)
		}
	}
	if err := rt.StreamDestroy(s); err != nil {
		t.Fatal(err)
	}
}

func TestLocalEventsTimeKernel(t *testing.T) {
	rt, _ := openAsync(t, "events")
	buf, _ := rt.Malloc(16)
	_ = rt.MemcpyToDevice(buf, make([]byte, 16))
	s, _ := rt.StreamCreate()
	start, err := rt.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	end, err := rt.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.EventRecord(start, s); err != nil {
		t.Fatal(err)
	}
	if err := rt.LaunchAsync("events_double", Dim3{X: 1}, Dim3{X: 4}, 0,
		gpu.PackParams(uint32(buf), 4), s); err != nil {
		t.Fatal(err)
	}
	if err := rt.EventRecord(end, s); err != nil {
		t.Fatal(err)
	}
	if err := rt.EventSynchronize(end); err != nil {
		t.Fatal(err)
	}
	elapsed, err := rt.EventElapsed(start, end)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 10*time.Millisecond {
		t.Fatalf("event elapsed %v, want 10ms", elapsed)
	}
	if err := rt.EventDestroy(start); err != nil {
		t.Fatal(err)
	}
	if err := rt.EventDestroy(end); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncErrorMapping(t *testing.T) {
	rt, _ := openAsync(t, "errors")
	if err := rt.StreamSynchronize(42); !errors.Is(err, ErrorInvalidValue) {
		t.Fatalf("bad stream sync = %v, want cudaErrorInvalidValue", err)
	}
	if err := rt.EventRecord(42, 0); !errors.Is(err, ErrorInvalidValue) {
		t.Fatalf("bad event record = %v, want cudaErrorInvalidValue", err)
	}
	if err := rt.MemcpyToDeviceAsync(0, []byte{1}, 0); !errors.Is(err, ErrorInvalidDevicePointer) {
		t.Fatalf("async null memcpy = %v, want cudaErrorInvalidDevicePointer", err)
	}
	if _, err := rt.EventElapsed(1, 2); !errors.Is(err, ErrorInvalidValue) {
		t.Fatalf("elapsed on unknown events = %v, want cudaErrorInvalidValue", err)
	}
}

func TestDeviceSynchronizeDrainsStreams(t *testing.T) {
	rt, clk := openAsync(t, "drain")
	buf, _ := rt.Malloc(16)
	_ = rt.MemcpyToDevice(buf, make([]byte, 16))
	s, _ := rt.StreamCreate()
	before := clk.Now()
	if err := rt.LaunchAsync("drain_double", Dim3{X: 1}, Dim3{X: 4}, 0,
		gpu.PackParams(uint32(buf), 4), s); err != nil {
		t.Fatal(err)
	}
	if err := rt.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	if clk.Now()-before != 10*time.Millisecond {
		t.Fatalf("DeviceSynchronize advanced %v, want 10ms", clk.Now()-before)
	}
}
