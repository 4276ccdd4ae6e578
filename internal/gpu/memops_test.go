package gpu

import (
	"bytes"
	"testing"
	"time"

	"rcuda/internal/vclock"
)

func TestMemsetFillsAndCharges(t *testing.T) {
	clk := vclock.NewSim()
	dev := New(Config{Clock: clk})
	ctx := dev.NewContextPreinitialized()
	const n = 1 << 20
	ptr, _ := ctx.Malloc(n)

	before := clk.Now()
	if err := ctx.Memset(ptr, 0xAB, n); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Now()-before, dev.MemsetTime(n); got != want {
		t.Fatalf("memset charged %v, want %v", got, want)
	}
	out, err := ctx.CopyToHost(ptr, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range out {
		if b != 0xAB {
			t.Fatalf("byte %d = %#x, want 0xAB", i, b)
		}
	}
	// Partial memset leaves the rest untouched.
	if err := ctx.Memset(ptr, 0, n/2); err != nil {
		t.Fatal(err)
	}
	out, _ = ctx.CopyToHost(ptr, n)
	if out[n/2-1] != 0 || out[n/2] != 0xAB {
		t.Fatal("partial memset boundary wrong")
	}
}

func TestMemsetBounds(t *testing.T) {
	dev := New(Config{Clock: vclock.NewSim()})
	ctx := dev.NewContextPreinitialized()
	ptr, _ := ctx.Malloc(100)
	if err := ctx.Memset(ptr, 1, 101); err == nil {
		t.Fatal("overrun memset must fail")
	}
	if err := ctx.Memset(0, 1, 1); err == nil {
		t.Fatal("null memset must fail")
	}
}

func TestDeviceToDeviceCopy(t *testing.T) {
	clk := vclock.NewSim()
	dev := New(Config{Clock: clk})
	ctx := dev.NewContextPreinitialized()
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 256)
	src, _ := ctx.Malloc(uint32(len(data)))
	dst, _ := ctx.Malloc(uint32(len(data)))
	if err := ctx.CopyToDevice(src, data); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	if err := ctx.CopyDeviceToDevice(dst, src, uint32(len(data))); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Now()-before, dev.DeviceCopyTime(int64(len(data))); got != want {
		t.Fatalf("D2D charged %v, want %v", got, want)
	}
	out, err := ctx.CopyToHost(dst, uint32(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("D2D copy corrupted data")
	}
}

func TestDeviceToDeviceOverlappingRanges(t *testing.T) {
	dev := New(Config{Clock: vclock.NewSim()})
	ctx := dev.NewContextPreinitialized()
	buf, _ := ctx.Malloc(16)
	_ = ctx.CopyToDevice(buf, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	// Shift by 4 within the same allocation; the intermediate buffer
	// guarantees a clean copy despite the overlap.
	if err := ctx.CopyDeviceToDevice(buf+4, buf, 12); err != nil {
		t.Fatal(err)
	}
	out, _ := ctx.CopyToHost(buf, 16)
	want := []byte{0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if !bytes.Equal(out, want) {
		t.Fatalf("overlapping D2D = %v, want %v", out, want)
	}
}

func TestDeviceToDeviceErrors(t *testing.T) {
	dev := New(Config{Clock: vclock.NewSim()})
	ctx := dev.NewContextPreinitialized()
	a, _ := ctx.Malloc(8)
	if err := ctx.CopyDeviceToDevice(a, 0, 8); err == nil {
		t.Fatal("null source must fail")
	}
	if err := ctx.CopyDeviceToDevice(0, a, 8); err == nil {
		t.Fatal("null destination must fail")
	}
	if err := ctx.CopyDeviceToDevice(a, a, 9); err == nil {
		t.Fatal("overrun must fail")
	}
}

func TestMemOpsOnDeadContext(t *testing.T) {
	dev := New(Config{Clock: vclock.NewSim()})
	ctx := dev.NewContextPreinitialized()
	ptr, _ := ctx.Malloc(8)
	_ = ctx.Destroy()
	if err := ctx.Memset(ptr, 1, 8); err == nil {
		t.Fatal("memset on dead context must fail")
	}
	if err := ctx.CopyDeviceToDevice(ptr, ptr, 8); err == nil {
		t.Fatal("D2D on dead context must fail")
	}
}

func TestProperties(t *testing.T) {
	dev := New(Config{Clock: vclock.NewSim()})
	p := dev.Properties()
	if p.Name == "" || p.MemoryBytes != DefaultMemoryBytes {
		t.Fatalf("properties %+v", p)
	}
	if p.CapabilityMajor != 1 || p.CapabilityMinor != 3 {
		t.Fatal("C1060 is compute capability 1.3")
	}
	if p.Multiprocessors != 30 || p.ClockMHz != 1296 {
		t.Fatal("C1060 has 30 SMs at 1296 MHz")
	}
}

func TestMemoryBandwidthTimes(t *testing.T) {
	dev := New(Config{Clock: vclock.NewSim()})
	// D2D touches every byte twice.
	if dev.DeviceCopyTime(1<<20) != 2*dev.MemsetTime(1<<20) {
		t.Fatal("device copy must cost twice a fill")
	}
	// Device memory is far faster than PCIe.
	if dev.MemsetTime(64<<20) >= dev.PCIeTime(64<<20) {
		t.Fatal("device-memory ops must beat PCIe transfers")
	}
	_ = time.Nanosecond
}

// copyThroughTemp is CopyDeviceToDevice's data movement as it was before it
// became a single copy: source to a temporary buffer, temporary to
// destination. It is the reference the table below holds the one-copy body
// to.
func copyThroughTemp(mem []byte, dst, src, size int) {
	tmp := make([]byte, size)
	copy(tmp, mem[src:src+size])
	copy(mem[dst:dst+size], tmp)
}

// TestDeviceToDeviceMatchesCopyThroughTemp covers every way two ranges of
// one allocation can relate.
func TestDeviceToDeviceMatchesCopyThroughTemp(t *testing.T) {
	const n = 64
	for _, tc := range []struct {
		name           string
		dst, src, size int
	}{
		{"disjoint, destination above", 40, 0, 20},
		{"disjoint, destination below", 0, 40, 20},
		{"adjacent", 20, 0, 20},
		{"forward overlap", 8, 0, 40},
		{"forward overlap by one byte", 39, 0, 25},
		{"backward overlap", 0, 8, 40},
		{"backward overlap by one byte", 0, 24, 25},
		{"identical ranges", 16, 16, 32},
		{"whole allocation onto itself", 0, 0, n},
		{"nothing", 5, 9, 0},
	} {
		dev := New(Config{Clock: vclock.NewSim()})
		ctx := dev.NewContextPreinitialized()
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i + 1)
		}
		buf, _ := ctx.Malloc(n)
		if err := ctx.CopyToDevice(buf, want); err != nil {
			t.Fatal(err)
		}
		copyThroughTemp(want, tc.dst, tc.src, tc.size)
		if err := ctx.CopyDeviceToDevice(buf+uint32(tc.dst), buf+uint32(tc.src), uint32(tc.size)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, _ := ctx.CopyToHost(buf, n); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got  %v\n want %v", tc.name, got, want)
		}
	}
}

// TestDeviceToDeviceDoesNotAllocate: the copy moves bytes inside device
// memory and needs no host buffer to do it.
func TestDeviceToDeviceDoesNotAllocate(t *testing.T) {
	dev := New(Config{Clock: vclock.NewSim()})
	ctx := dev.NewContextPreinitialized()
	buf, _ := ctx.Malloc(1 << 20)
	if n := testing.AllocsPerRun(20, func() {
		if err := ctx.CopyDeviceToDevice(buf+(512<<10), buf, 512<<10); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CopyDeviceToDevice allocates %v times per call", n)
	}
}
