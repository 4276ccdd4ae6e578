package gpu

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/vclock"
)

// costKernel returns a kernel with a fixed modeled cost and trivial Run.
func costKernel(name string, cost time.Duration) *Kernel {
	return &Kernel{
		Name: name,
		Run:  func(ec ExecContext) (time.Duration, error) { return cost, nil },
	}
}

func streamTestCtx(t *testing.T, kernels ...*Kernel) (*Context, *vclock.Sim) {
	t.Helper()
	clk := vclock.NewSim()
	dev := New(Config{Clock: clk})
	ctx := dev.NewContextPreinitialized()
	if len(kernels) > 0 {
		if err := ctx.LoadModule(&Module{Name: "stream_mod_" + t.Name(), BinarySize: 64, Kernels: kernels}); err != nil {
			t.Fatal(err)
		}
	}
	return ctx, clk
}

// copyAsync is cudaMemcpyAsync: CopyToDeviceAsyncAt at the clock's now.
func copyAsync(c *Context, dst uint32, data []byte, stream uint32) error {
	_, err := c.CopyToDeviceAsyncAt(dst, data, stream, c.dev.cfg.Clock.Now())
	return err
}

func TestStreamLifecycle(t *testing.T) {
	ctx, _ := streamTestCtx(t)
	s, err := ctx.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	if s == DefaultStream {
		t.Fatal("new stream must not be the default stream")
	}
	if err := ctx.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	if err := ctx.StreamDestroy(s); err != nil {
		t.Fatal(err)
	}
	if err := ctx.StreamSynchronize(s); !errors.Is(err, ErrInvalidStream) {
		t.Fatalf("sync on destroyed stream = %v, want ErrInvalidStream", err)
	}
	if err := ctx.StreamDestroy(DefaultStream); err == nil {
		t.Fatal("destroying the default stream must fail")
	}
}

func TestAsyncCopyDoesNotBlockClock(t *testing.T) {
	ctx, clk := streamTestCtx(t)
	s, _ := ctx.StreamCreate()
	data := make([]byte, 1<<20)
	ptr, _ := ctx.Malloc(uint32(len(data)))

	before := clk.Now()
	if err := copyAsync(ctx, ptr, data, s); err != nil {
		t.Fatal(err)
	}
	if clk.Now() != before {
		t.Fatal("async copy must not advance the clock at issue time")
	}
	if err := ctx.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	want := calib.PCIeTransfer(int64(len(data)))
	if got := clk.Now() - before; got != want {
		t.Fatalf("stream sync advanced clock by %v, want %v", got, want)
	}
	// The data really landed.
	out, err := ctx.CopyToHost(ptr, uint32(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(data) {
		t.Fatal("data missing")
	}
}

func TestCopyKernelOverlap(t *testing.T) {
	// One copy engine + one compute engine: a kernel on stream B overlaps
	// a transfer on stream A, so the makespan is max, not sum.
	const kcost = 10 * time.Millisecond
	ctx, clk := streamTestCtx(t, costKernel("slow", kcost))
	sA, _ := ctx.StreamCreate()
	sB, _ := ctx.StreamCreate()

	data := make([]byte, 50<<20) // ~8.7 ms of PCIe
	ptr, _ := ctx.Malloc(uint32(len(data)))
	copyCost := calib.PCIeTransfer(int64(len(data)))

	before := clk.Now()
	if err := copyAsync(ctx, ptr, data, sA); err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchAsync("slow", Dim3{X: 1}, Dim3{X: 1}, 0, nil, sB); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Synchronize(); err != nil {
		t.Fatal(err)
	}
	got := clk.Now() - before
	want := kcost // kernel (10 ms) > copy (~8.7 ms)
	if copyCost > want {
		want = copyCost
	}
	if got != want {
		t.Fatalf("overlapped makespan %v, want max(%v, %v)", got, kcost, copyCost)
	}
}

func TestCopiesSerializeOnOneEngine(t *testing.T) {
	// Two async copies on different streams still share the single copy
	// engine: total = sum.
	ctx, clk := streamTestCtx(t)
	sA, _ := ctx.StreamCreate()
	sB, _ := ctx.StreamCreate()
	data := make([]byte, 10<<20)
	pa, _ := ctx.Malloc(uint32(len(data)))
	pb, _ := ctx.Malloc(uint32(len(data)))

	before := clk.Now()
	if err := copyAsync(ctx, pa, data, sA); err != nil {
		t.Fatal(err)
	}
	if err := copyAsync(ctx, pb, data, sB); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Synchronize(); err != nil {
		t.Fatal(err)
	}
	want := 2 * calib.PCIeTransfer(int64(len(data)))
	if got := clk.Now() - before; got != want {
		t.Fatalf("two copies took %v, want serialized %v", got, want)
	}
}

func TestStreamOrderingWithinStream(t *testing.T) {
	// Operations on the same stream serialize even across engines.
	const kcost = 5 * time.Millisecond
	ctx, clk := streamTestCtx(t, costKernel("k", kcost))
	s, _ := ctx.StreamCreate()
	data := make([]byte, 10<<20)
	ptr, _ := ctx.Malloc(uint32(len(data)))

	before := clk.Now()
	if err := copyAsync(ctx, ptr, data, s); err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchAsync("k", Dim3{X: 1}, Dim3{X: 1}, 0, nil, s); err != nil {
		t.Fatal(err)
	}
	if err := ctx.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	want := calib.PCIeTransfer(int64(len(data))) + kcost
	if got := clk.Now() - before; got != want {
		t.Fatalf("same-stream pipeline took %v, want serialized %v", got, want)
	}
}

func TestSyncOpsWaitForAsyncWork(t *testing.T) {
	const kcost = 7 * time.Millisecond
	ctx, clk := streamTestCtx(t, costKernel("k", kcost))
	s, _ := ctx.StreamCreate()
	if err := ctx.LaunchAsync("k", Dim3{X: 1}, Dim3{X: 1}, 0, nil, s); err != nil {
		t.Fatal(err)
	}
	ptr, _ := ctx.Malloc(64)
	before := clk.Now()
	if err := ctx.CopyToDevice(ptr, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if clk.Now()-before < kcost {
		t.Fatal("synchronous memcpy must wait out pending async work")
	}
}

func TestDefaultStreamIsSynchronous(t *testing.T) {
	ctx, clk := streamTestCtx(t)
	data := make([]byte, 1<<20)
	ptr, _ := ctx.Malloc(uint32(len(data)))
	before := clk.Now()
	if err := copyAsync(ctx, ptr, data, DefaultStream); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Now()-before, calib.PCIeTransfer(int64(len(data))); got != want {
		t.Fatalf("default-stream async copy charged %v, want synchronous %v", got, want)
	}
}

func TestEventsMeasureStreamWork(t *testing.T) {
	const kcost = 12 * time.Millisecond
	ctx, _ := streamTestCtx(t, costKernel("k", kcost))
	s, _ := ctx.StreamCreate()
	start, err := ctx.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	end, err := ctx.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.EventRecord(start, s); err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchAsync("k", Dim3{X: 1}, Dim3{X: 1}, 0, nil, s); err != nil {
		t.Fatal(err)
	}
	if err := ctx.EventRecord(end, s); err != nil {
		t.Fatal(err)
	}
	if err := ctx.EventSynchronize(end); err != nil {
		t.Fatal(err)
	}
	elapsed, err := ctx.EventElapsed(start, end)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != kcost {
		t.Fatalf("event elapsed %v, want %v", elapsed, kcost)
	}
	if err := ctx.EventDestroy(start); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.EventElapsed(start, end); !errors.Is(err, ErrInvalidEvent) {
		t.Fatalf("elapsed on destroyed event = %v, want ErrInvalidEvent", err)
	}
}

func TestEventErrors(t *testing.T) {
	ctx, _ := streamTestCtx(t)
	if err := ctx.EventRecord(99, DefaultStream); !errors.Is(err, ErrInvalidEvent) {
		t.Fatal("unknown event must fail")
	}
	e, _ := ctx.EventCreate()
	if err := ctx.EventRecord(e, 42); !errors.Is(err, ErrInvalidStream) {
		t.Fatal("unknown stream must fail")
	}
	if err := ctx.EventSynchronize(99); !errors.Is(err, ErrInvalidEvent) {
		t.Fatal("sync on unknown event must fail")
	}
	if err := ctx.EventDestroy(99); !errors.Is(err, ErrInvalidEvent) {
		t.Fatal("destroy of unknown event must fail")
	}
}

// TestAsyncOnWallClockOverlaps holds the wall clock to the same timing
// model as the simulated one: an async launch returns before its modeled
// cost has elapsed, the stream reads busy, and synchronizing waits for the
// booked completion. A wall sleep overshoots and never undershoots, so
// only lower bounds are exact; the launch's return gets the whole cost as
// its margin.
func TestAsyncOnWallClockOverlaps(t *testing.T) {
	const kcost = 300 * time.Millisecond
	clk := vclock.NewWall()
	ctx := New(Config{Clock: clk}).NewContextPreinitialized()
	if err := ctx.LoadModule(&Module{Name: "wall_mod", BinarySize: 64, Kernels: []*Kernel{costKernel("k", kcost)}}); err != nil {
		t.Fatal(err)
	}
	s, _ := ctx.StreamCreate()
	start := clk.Now()
	if err := ctx.LaunchAsync("k", Dim3{X: 1}, Dim3{X: 1}, 0, nil, s); err != nil {
		t.Fatal(err)
	}
	if took := clk.Now() - start; took >= kcost {
		t.Fatalf("async launch returned after %v, not before its %v cost", took, kcost)
	}
	if ready, err := ctx.StreamReady(s); err != nil || ready {
		t.Fatalf("StreamReady right after the launch = %v, %v; want false", ready, err)
	}
	if err := ctx.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	if took := clk.Now() - start; took < kcost {
		t.Fatalf("StreamSynchronize returned %v after the launch, before its %v completion", took, kcost)
	}
	if ready, err := ctx.StreamReady(s); err != nil || !ready {
		t.Fatalf("StreamReady after synchronizing = %v, %v; want true", ready, err)
	}
}

func TestAsyncOnDeadContext(t *testing.T) {
	// The kernel touches no memory, so only the kernel lookup can refuse
	// its launches.
	ctx, _ := streamTestCtx(t, costKernel("k", time.Millisecond))
	s, _ := ctx.StreamCreate()
	_ = ctx.Destroy()
	if _, err := ctx.StreamCreate(); !errors.Is(err, ErrContextDestroyed) {
		t.Fatal("StreamCreate on dead context")
	}
	if err := ctx.StreamSynchronize(s); !errors.Is(err, ErrContextDestroyed) {
		t.Fatal("StreamSynchronize on dead context")
	}
	if err := ctx.Synchronize(); !errors.Is(err, ErrContextDestroyed) {
		t.Fatal("Synchronize on dead context")
	}
	if _, err := ctx.EventCreate(); !errors.Is(err, ErrContextDestroyed) {
		t.Fatal("EventCreate on dead context")
	}
	if err := ctx.Launch("k", Dim3{X: 1}, Dim3{X: 1}, 0, nil); !errors.Is(err, ErrContextDestroyed) {
		t.Fatalf("Launch on dead context = %v", err)
	}
	if err := ctx.LaunchAsync("k", Dim3{X: 1}, Dim3{X: 1}, 0, nil, s); !errors.Is(err, ErrContextDestroyed) {
		t.Fatalf("LaunchAsync on dead context = %v", err)
	}
}

func TestAsyncCopyToUnknownStream(t *testing.T) {
	ctx, _ := streamTestCtx(t)
	ptr, _ := ctx.Malloc(64)
	if err := copyAsync(ctx, ptr, make([]byte, 64), 42); !errors.Is(err, ErrInvalidStream) {
		t.Fatalf("copy to unknown stream = %v, want ErrInvalidStream", err)
	}
}

func TestAsyncCopyToHost(t *testing.T) {
	ctx, clk := streamTestCtx(t)
	s, _ := ctx.StreamCreate()
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i)
	}
	ptr, _ := ctx.Malloc(uint32(len(data)))
	if err := ctx.CopyToDevice(ptr, data); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	out, ready, err := ctx.HostViewAsyncAt(ptr, uint32(len(data)), s, before)
	if err != nil {
		t.Fatal(err)
	}
	if clk.Now() != before {
		t.Fatal("async D2H must not advance the clock at issue time")
	}
	pcie := calib.PCIeTransfer(int64(len(data)))
	if ready != before+pcie {
		t.Fatalf("async D2H ready at %v, want %v", ready, before+pcie)
	}
	if err := ctx.StreamSynchronize(s); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now() - before; got != pcie {
		t.Fatalf("async D2H charged %v on sync, want %v", got, pcie)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("async D2H view differs from what was copied in")
	}
	// Error paths: bad pointer and bad stream.
	if _, _, err := ctx.HostViewAsyncAt(0, 4, s, clk.Now()); err == nil {
		t.Fatal("null async D2H must fail")
	}
	if _, _, err := ctx.HostViewAsyncAt(ptr, 4, 99, clk.Now()); !errors.Is(err, ErrInvalidStream) {
		t.Fatalf("bad stream async D2H = %v", err)
	}
	// Default stream degrades to synchronous.
	before = clk.Now()
	if _, _, err := ctx.HostViewAsyncAt(ptr, 4, DefaultStream, before); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now() - before; got != calib.PCIeTransfer(4) {
		t.Fatalf("default-stream D2H charged %v, want %v", got, calib.PCIeTransfer(4))
	}
}

func TestStreamAndEventQueries(t *testing.T) {
	const kcost = 10 * time.Millisecond
	ctx, clk := streamTestCtx(t, costKernel("k", kcost))
	s, _ := ctx.StreamCreate()
	e, _ := ctx.EventCreate()

	ready, err := ctx.StreamReady(s)
	if err != nil || !ready {
		t.Fatalf("idle stream ready = %v, %v", ready, err)
	}
	if err := ctx.LaunchAsync("k", Dim3{X: 1}, Dim3{X: 1}, 0, nil, s); err != nil {
		t.Fatal(err)
	}
	if err := ctx.EventRecord(e, s); err != nil {
		t.Fatal(err)
	}
	// The kernel's completion sits in the virtual future.
	ready, err = ctx.StreamReady(s)
	if err != nil || ready {
		t.Fatalf("busy stream ready = %v, %v", ready, err)
	}
	ready, err = ctx.EventReady(e)
	if err != nil || ready {
		t.Fatalf("pending event ready = %v, %v", ready, err)
	}
	// Advance past the kernel: both become ready without synchronizing.
	clk.Sleep(kcost)
	ready, err = ctx.StreamReady(s)
	if err != nil || !ready {
		t.Fatalf("drained stream ready = %v, %v", ready, err)
	}
	ready, err = ctx.EventReady(e)
	if err != nil || !ready {
		t.Fatalf("fired event ready = %v, %v", ready, err)
	}
	// Error paths.
	if _, err := ctx.StreamReady(99); !errors.Is(err, ErrInvalidStream) {
		t.Fatal("bad stream query")
	}
	if _, err := ctx.EventReady(99); !errors.Is(err, ErrInvalidEvent) {
		t.Fatal("bad event query")
	}
}
