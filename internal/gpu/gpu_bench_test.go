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
// cost of a launch (geometry check, a lock-free kernel lookup, the wait for
// pending work, the clock). On a 2-vCPU Xeon (Sapphire Rapids, 2.0 GHz,
// go1.24), medians of five runs alternated with the previous launch path,
// which took the context's lock for the lookup and kept a launch frame in an
// atomic pointer: 219 → 140 ns. kernels.BenchmarkLaunchSgemm16 is the same
// call with 4 096 multiply-adds behind it, so arithmetic, not dispatch, is
// most of what is left.
func BenchmarkLaunchDispatch(b *testing.B) {
	dev := New(Config{Clock: vclock.NewSim()})
	ctx := dev.NewContextPreinitialized()
	mod := &Module{Name: "bench_mod", BinarySize: 64, Kernels: []*Kernel{{
		Name: "noop",
		Run:  func(ExecContext) (time.Duration, error) { return time.Microsecond, nil },
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
		if err := copyAsync(ctx, ptr, data, s); err != nil {
			b.Fatal(err)
		}
	}
	if err := ctx.StreamSynchronize(s); err != nil {
		b.Fatal(err)
	}
}
