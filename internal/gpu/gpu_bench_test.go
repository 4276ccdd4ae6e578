package gpu

import (
	"testing"
	"time"

	"rcuda/internal/vclock"
)

func BenchmarkMallocFree(b *testing.B) {
	dev := New(Config{Clock: vclock.NewSim()})
	ctx := dev.NewContextPreinitialized()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ptr, err := ctx.Malloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := ctx.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCopyToDevice1MiB(b *testing.B) {
	dev := New(Config{Clock: vclock.NewSim()})
	ctx := dev.NewContextPreinitialized()
	data := make([]byte, 1<<20)
	ptr, err := ctx.Malloc(uint32(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.CopyToDevice(ptr, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchDispatch launches a kernel that does nothing: the fixed
// cost of a launch (lookup, launch frame, cost model, clock), 170 ns on the
// 2-vCPU benchmark machine. kernels.BenchmarkLaunchSgemm16 is the same call
// with 4 096 multiply-adds behind it — 2 500 ns before the SSE2 micro-kernel
// and in-place operands, 770 ns after (gpu.launch_sgemm16_ns in the
// wall-clock benchmark) — so arithmetic, not dispatch, is what is left.
func BenchmarkLaunchDispatch(b *testing.B) {
	dev := New(Config{Clock: vclock.NewSim()})
	ctx := dev.NewContextPreinitialized()
	mod := &Module{Name: "bench_mod", BinarySize: 64, Kernels: []*Kernel{{
		Name: "noop",
		Run:  func(*ExecContext) error { return nil },
		Cost: func(*ExecContext) time.Duration { return time.Microsecond },
	}}}
	if err := ctx.LoadModule(mod); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ctx.Launch("noop", Dim3{X: 1}, Dim3{X: 1}, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAsyncScheduling(b *testing.B) {
	dev := New(Config{Clock: vclock.NewSim()})
	ctx := dev.NewContextPreinitialized()
	data := make([]byte, 4096)
	ptr, err := ctx.Malloc(uint32(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	s, err := ctx.StreamCreate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.CopyToDeviceAsync(ptr, data, s); err != nil {
			b.Fatal(err)
		}
	}
	if err := ctx.StreamSynchronize(s); err != nil {
		b.Fatal(err)
	}
}
