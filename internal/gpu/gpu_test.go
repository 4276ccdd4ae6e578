package gpu

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/vclock"
)

func newTestDevice() (*Device, *vclock.Sim) {
	clk := vclock.NewSim()
	return New(Config{Clock: clk}), clk
}

func TestDeviceDefaults(t *testing.T) {
	d := New(Config{})
	if d.MemoryBytes() != DefaultMemoryBytes {
		t.Fatalf("memory = %d, want %d", d.MemoryBytes(), uint64(DefaultMemoryBytes))
	}
	maj, min := d.Capability()
	if maj != 1 || min != 3 {
		t.Fatalf("capability %d.%d, want 1.3 (Tesla C1060)", maj, min)
	}
	if d.Name() == "" {
		t.Fatal("device must have a default name")
	}
}

func TestPCIeTimeMatchesMeasuredBandwidth(t *testing.T) {
	// 64 MiB at 5743 MB/s ≈ 11.1 ms.
	got := calib.PCIeTransfer(64 << 20)
	want := 64.0 / 5743 * 1000
	if math.Abs(float64(got)/float64(time.Millisecond)-want) > 0.01 {
		t.Fatalf("PCIe time for 64 MiB = %v, want ~%.2f ms", got, want)
	}
}

func TestMallocFreeLifecycle(t *testing.T) {
	d, _ := newTestDevice()
	ctx := d.NewContextPreinitialized()
	a, err := ctx.Malloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 {
		t.Fatal("device pointer must be non-zero")
	}
	b, err := ctx.Malloc(2000)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct allocations share an address")
	}
	if d.Allocations() != 2 {
		t.Fatalf("allocations = %d, want 2", d.Allocations())
	}
	if err := ctx.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Free(a); err == nil {
		t.Fatal("double free must fail")
	}
	if err := ctx.Free(b); err != nil {
		t.Fatal(err)
	}
	if got := d.MemoryInUse(); got != 0 {
		t.Fatalf("memory in use after frees = %d, want 0", got)
	}
}

func TestMallocZeroSize(t *testing.T) {
	d, _ := newTestDevice()
	ctx := d.NewContextPreinitialized()
	if _, err := ctx.Malloc(0); !errors.Is(err, ErrZeroSize) {
		t.Fatalf("Malloc(0) = %v, want ErrZeroSize", err)
	}
}

func TestOutOfMemory(t *testing.T) {
	d := New(Config{MemoryBytes: 1 << 20, Clock: vclock.NewSim()})
	ctx := d.NewContextPreinitialized()
	if _, err := ctx.Malloc(2 << 20); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-allocation = %v, want ErrOutOfMemory", err)
	}
	// Fill, free, refill: space must be reusable.
	a, err := ctx.Malloc(512 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Malloc(768 << 10); !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("second allocation should not fit")
	}
	if err := ctx.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Malloc(768 << 10); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
}

func TestCopyRoundTripAndTiming(t *testing.T) {
	d, clk := newTestDevice()
	ctx := d.NewContextPreinitialized()
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 1<<18) // 1 MiB
	ptr, err := ctx.Malloc(uint32(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	if err := ctx.CopyToDevice(ptr, data); err != nil {
		t.Fatal(err)
	}
	got, err := ctx.CopyToHost(ptr, uint32(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("device memory round trip corrupted data")
	}
	elapsed := clk.Now() - before
	want := 2 * calib.PCIeTransfer(int64(len(data)))
	if elapsed != want {
		t.Fatalf("two PCIe copies advanced clock by %v, want %v", elapsed, want)
	}
}

func TestCopyBoundsChecked(t *testing.T) {
	d, _ := newTestDevice()
	ctx := d.NewContextPreinitialized()
	ptr, _ := ctx.Malloc(100)
	if err := ctx.CopyToDevice(ptr, make([]byte, 101)); err == nil {
		t.Fatal("overrun write must fail")
	}
	if _, err := ctx.CopyToHost(ptr, 101); err == nil {
		t.Fatal("overrun read must fail")
	}
	if err := ctx.CopyToDevice(0, []byte{1}); err == nil {
		t.Fatal("write through null pointer must fail")
	}
	// Interior pointer reads are fine within bounds.
	if _, err := ctx.CopyToHost(ptr+10, 90); err != nil {
		t.Fatalf("interior read failed: %v", err)
	}
	if _, err := ctx.CopyToHost(ptr+10, 91); err == nil {
		t.Fatal("interior overrun must fail")
	}
}

func TestContextInitCost(t *testing.T) {
	d, clk := newTestDevice()
	before := clk.Now()
	_ = d.NewContext()
	if got := clk.Now() - before; got != calib.ContextInit {
		t.Fatalf("NewContext advanced clock by %v, want %v", got, calib.ContextInit)
	}
	before = clk.Now()
	_ = d.NewContextPreinitialized()
	if got := clk.Now() - before; got != 0 {
		t.Fatalf("pre-initialized context cost %v, want 0", got)
	}
}

func TestContextDestroyFreesMemory(t *testing.T) {
	d, _ := newTestDevice()
	ctx := d.NewContextPreinitialized()
	for i := 0; i < 5; i++ {
		if _, err := ctx.Malloc(1 << 20); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctx.Destroy(); err != nil {
		t.Fatal(err)
	}
	if got := d.MemoryInUse(); got != 0 {
		t.Fatalf("memory in use after Destroy = %d, want 0", got)
	}
	if _, err := ctx.Malloc(1); !errors.Is(err, ErrContextDestroyed) {
		t.Fatalf("Malloc on dead context = %v, want ErrContextDestroyed", err)
	}
	if err := ctx.Destroy(); err != nil {
		t.Fatal("Destroy must be idempotent")
	}
}

func TestContextsIsolated(t *testing.T) {
	d, _ := newTestDevice()
	c1 := d.NewContextPreinitialized()
	c2 := d.NewContextPreinitialized()
	p1, err := c1.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Free(p1); err == nil {
		t.Fatal("a context must not free another context's allocation")
	}
	// But destroying c1 releases it.
	if err := c1.Destroy(); err != nil {
		t.Fatal(err)
	}
	if d.MemoryInUse() != 0 {
		t.Fatal("c1's memory not released")
	}
}

func testModule(name string, binSize int, kernels ...*Kernel) *Module {
	return &Module{Name: name, Kernels: kernels, BinarySize: binSize}
}

func TestModuleBinaryRoundTrip(t *testing.T) {
	m := testModule("mm_test_roundtrip", 21486)
	img, err := m.Binary()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != 21486 {
		t.Fatalf("module image = %d bytes, want 21486", len(img))
	}
	name, err := moduleName(img)
	if err != nil {
		t.Fatal(err)
	}
	if string(name) != "mm_test_roundtrip" {
		t.Fatalf("extracted name %q", name)
	}
}

func TestModuleBinaryTooSmall(t *testing.T) {
	m := testModule("a_name_longer_than_the_size", 8)
	if _, err := m.Binary(); err == nil {
		t.Fatal("want error when BinarySize cannot hold the header")
	}
}

func TestModuleNameFromBadBinary(t *testing.T) {
	if _, err := moduleName([]byte("bogus")); !errors.Is(err, ErrUnknownModule) {
		t.Fatalf("got %v, want ErrUnknownModule", err)
	}
}

func TestRegistryAndResolve(t *testing.T) {
	m := testModule("registry_test_mod", 256)
	RegisterModule(m)
	got, err := LookupModule("registry_test_mod")
	if err != nil || got != m {
		t.Fatalf("LookupModule: %v, %v", got, err)
	}
	img, _ := m.Binary()
	r, err := ResolveModule(img)
	if err != nil || r != m {
		t.Fatalf("ResolveModule: %v, %v", r, err)
	}
	// Image of wrong length must be rejected.
	if _, err := ResolveModule(img[:100]); err == nil {
		t.Fatal("short image must not resolve")
	}
	if _, err := LookupModule("nope"); err == nil {
		t.Fatal("unknown module must not resolve")
	}
	found := false
	for _, n := range RegisteredModules() {
		if n == "registry_test_mod" {
			found = true
		}
	}
	if !found {
		t.Fatal("RegisteredModules must list the module")
	}
}

// TestResolveModuleTable: an image resolves only when its header is well
// formed, its name is registered and its length is the registered size.
func TestResolveModuleTable(t *testing.T) {
	m := testModule("resolve_table_mod", 300)
	RegisterModule(m)
	good, err := m.Binary()
	if err != nil {
		t.Fatal(err)
	}
	header := len(moduleMagic) + 4 + len(m.Name)
	renamed := append([]byte(nil), good...)
	renamed[header-1] ^= 1
	for _, tc := range []struct {
		name    string
		img     []byte
		unknown bool   // errors.Is ErrUnknownModule
		size    string // or the size error names these two numbers
	}{
		{name: "unknown magic", img: append([]byte("RCUDAMOX"), good[8:]...), unknown: true},
		{name: "empty", img: nil, unknown: true},
		{name: "short name field", img: good[:header-1], unknown: true},
		{name: "name length past the image", img: append(append([]byte(nil), good[:8]...), 0xFF, 0xFF, 0xFF, 0x7F), unknown: true},
		{name: "unknown name", img: renamed, unknown: true},
		{name: "one byte short", img: good[:299], size: "299 bytes, registered size 300"},
		{name: "one byte long", img: append(append([]byte(nil), good...), 0), size: "301 bytes, registered size 300"},
		{name: "header only", img: good[:header], size: fmt.Sprintf("%d bytes, registered size 300", header)},
		{name: "exact size", img: good},
	} {
		got, err := ResolveModule(tc.img)
		switch {
		case tc.unknown:
			if !errors.Is(err, ErrUnknownModule) {
				t.Errorf("%s: %v, want ErrUnknownModule", tc.name, err)
			}
		case tc.size != "":
			if err == nil || !strings.Contains(err.Error(), tc.size) {
				t.Errorf("%s: %v, want a size error naming %q", tc.name, err, tc.size)
			}
		case err != nil || got != m:
			t.Errorf("%s: resolved %v, %v", tc.name, got, err)
		}
	}
}

// TestRegisterRefusesModuleWithoutImage: a BinarySize below the module's own
// header can match no image; such a module used to register and then resolve
// against a nil image with a misleading size error.
func TestRegisterRefusesModuleWithoutImage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a module whose BinarySize cannot hold its header must not register")
		}
		if _, err := LookupModule("a_name_longer_than_the_size"); err == nil {
			t.Fatal("the refused module is in the registry")
		}
	}()
	RegisterModule(testModule("a_name_longer_than_the_size", 8))
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	RegisterModule(testModule("dup_mod", 64))
	RegisterModule(testModule("dup_mod", 64))
}

// A kernel that doubles a vector of uint32s in place, with a cost of 1 µs
// per element, exercises the full launch path.
func doublerKernel() *Kernel {
	return &Kernel{
		Name: "doubler",
		Run: func(ec ExecContext) (time.Duration, error) {
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
			for i := uint32(0); i < n; i++ {
				v := uint32(mem[i*4]) | uint32(mem[i*4+1])<<8 | uint32(mem[i*4+2])<<16 | uint32(mem[i*4+3])<<24
				v *= 2
				mem[i*4], mem[i*4+1], mem[i*4+2], mem[i*4+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			}
			return time.Duration(n) * time.Microsecond, nil
		},
	}
}

func TestLaunchExecutesAndCharges(t *testing.T) {
	d, clk := newTestDevice()
	ctx := d.NewContextPreinitialized()
	mod := testModule("launch_test_mod", 128, doublerKernel())
	if err := ctx.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	ptr, _ := ctx.Malloc(n * 4)
	in := make([]byte, n*4)
	for i := 0; i < n; i++ {
		in[i*4] = byte(i)
		in[i*4+1] = byte(i >> 8)
	}
	if err := ctx.CopyToDevice(ptr, in); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	if err := ctx.Launch("doubler", Dim3{X: 4}, Dim3{X: 256}, 0, PackParams(ptr, n)); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now() - before; got != n*time.Microsecond {
		t.Fatalf("launch advanced clock by %v, want %v", got, n*time.Microsecond)
	}
	out, err := ctx.CopyToHost(ptr, n*4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := uint32(out[i*4]) | uint32(out[i*4+1])<<8
		if got != uint32(i)*2 {
			t.Fatalf("element %d = %d, want %d", i, got, i*2)
		}
	}
}

// An unknown kernel is the same failure on the synchronous and the stream
// path and must read the same: ErrUnknownKernel naming the kernel and the
// loaded modules, in a stable order.
func TestLaunchUnknownKernel(t *testing.T) {
	d, _ := newTestDevice()
	ctx := d.NewContextPreinitialized()
	for _, name := range []string{"unknown_b_mod", "unknown_a_mod"} {
		if err := ctx.LoadModule(testModule(name, 64)); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := ctx.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	syncErr := ctx.Launch("nope", Dim3{}, Dim3{}, 0, nil)
	asyncErr := ctx.LaunchAsync("nope", Dim3{}, Dim3{}, 0, nil, stream)
	for _, err := range []error{syncErr, asyncErr} {
		if !errors.Is(err, ErrUnknownKernel) {
			t.Fatalf("got %v, want ErrUnknownKernel", err)
		}
		if !strings.Contains(err.Error(), `"nope" (loaded modules: [unknown_a_mod unknown_b_mod])`) {
			t.Fatalf("error %q does not list the loaded modules in order", err)
		}
	}
	if syncErr.Error() != asyncErr.Error() {
		t.Fatalf("Launch reports %q, LaunchAsync %q", syncErr, asyncErr)
	}
}

// The ExecContext handed to Cost must read the parameter block from the
// start again, exactly as Run saw it, on both launch paths.
func TestCostSeesRewoundParams(t *testing.T) {
	d, clk := newTestDevice()
	ctx := d.NewContextPreinitialized()
	if err := ctx.LoadModule(testModule("rewind_mod", 128, doublerKernel())); err != nil {
		t.Fatal(err)
	}
	const n = 8
	ptr, _ := ctx.Malloc(n * 4)
	stream, err := ctx.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.LaunchAsync("doubler", Dim3{X: 1}, Dim3{X: n}, 0, PackParams(ptr, n), stream); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	if err := ctx.StreamSynchronize(stream); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now() - before; got != n*time.Microsecond {
		t.Fatalf("stream launch booked %v, want %v", got, n*time.Microsecond)
	}
}

func TestLoadModuleTwice(t *testing.T) {
	d, _ := newTestDevice()
	ctx := d.NewContextPreinitialized()
	mod := testModule("twice_mod", 64)
	if err := ctx.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	if err := ctx.LoadModule(mod); err == nil {
		t.Fatal("loading a module twice must fail")
	}
}

func TestDim3Count(t *testing.T) {
	if got := (Dim3{X: 16, Y: 16, Z: 1}).Count(); got != 256 {
		t.Fatalf("Count = %d, want 256", got)
	}
	if got := (Dim3{X: 5}).Count(); got != 5 {
		t.Fatalf("Count with zero Y/Z = %d, want 5", got)
	}
	if got := (Dim3{}).Count(); got != 1 {
		t.Fatalf("zero Dim3 Count = %d, want 1", got)
	}
}

func TestParamReader(t *testing.T) {
	r := &ParamReader{buf: PackParams(7, 9)}
	a, err := r.U32()
	if err != nil || a != 7 {
		t.Fatalf("first param: %d, %v", a, err)
	}
	b, err := r.U32()
	if err != nil || b != 9 {
		t.Fatalf("second param: %d, %v", b, err)
	}
	if r.off != len(r.buf) {
		t.Fatalf("read %d of %d parameter bytes", r.off, len(r.buf))
	}
	if _, err := r.U32(); err == nil {
		t.Fatal("reading past end must fail")
	}
}

// Property: any sequence of allocations within capacity yields
// non-overlapping, aligned regions.
func TestAllocatorNonOverlappingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := newAllocator(1 << 24)
		type span struct{ lo, hi uint64 }
		var spans []span
		for _, s := range sizes {
			if s == 0 {
				continue
			}
			b, err := a.alloc(uint32(s))
			if errors.Is(err, ErrOutOfMemory) {
				continue
			}
			if err != nil {
				return false
			}
			addr := b.addr
			if addr%allocAlign != 0 {
				return false
			}
			lo, hi := uint64(addr), uint64(addr)+uint64(s)
			for _, sp := range spans {
				if lo < sp.hi && sp.lo < hi {
					return false // overlap
				}
			}
			spans = append(spans, span{lo, hi})
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: alloc/free cycles conserve the in-use accounting and always
// return us to zero.
func TestAllocatorConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := newAllocator(1 << 26)
		var addrs []uint32
		for _, s := range sizes {
			if s == 0 {
				continue
			}
			b, err := a.alloc(uint32(s))
			if err != nil {
				return errors.Is(err, ErrOutOfMemory)
			}
			addrs = append(addrs, b.addr)
		}
		for _, addr := range addrs {
			if err := a.free(addr); err != nil {
				return false
			}
		}
		return a.inUse() == 0 && a.count() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: data written to an allocation is read back intact regardless of
// neighboring allocations.
func TestDeviceMemoryIntegrityProperty(t *testing.T) {
	d, _ := newTestDevice()
	ctx := d.NewContextPreinitialized()
	f := func(a, b []byte) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		pa, err := ctx.Malloc(uint32(len(a)))
		if err != nil {
			return false
		}
		pb, err := ctx.Malloc(uint32(len(b)))
		if err != nil {
			return false
		}
		defer func() { _ = ctx.Free(pa); _ = ctx.Free(pb) }()
		if ctx.CopyToDevice(pa, a) != nil || ctx.CopyToDevice(pb, b) != nil {
			return false
		}
		ra, err := ctx.CopyToHost(pa, uint32(len(a)))
		if err != nil {
			return false
		}
		rb, err := ctx.CopyToHost(pb, uint32(len(b)))
		if err != nil {
			return false
		}
		return bytes.Equal(ra, a) && bytes.Equal(rb, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Stress: concurrent contexts allocating, copying, launching, and freeing
// on one device must stay consistent (run with -race).
func TestConcurrentContextsStress(t *testing.T) {
	d, _ := newTestDevice()
	mod := testModule("stress_mod", 128, doublerKernel())

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			ctx := d.NewContextPreinitialized()
			defer func() { _ = ctx.Destroy() }()
			if err := ctx.LoadModule(mod); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 20; i++ {
				n := uint32(64 + (seed+i)%512)
				ptr, err := ctx.Malloc(n * 4)
				if err != nil {
					errs <- err
					return
				}
				if err := ctx.CopyToDevice(ptr, make([]byte, n*4)); err != nil {
					errs <- err
					return
				}
				if err := ctx.Launch("doubler", Dim3{X: 1}, Dim3{X: 64}, 0, PackParams(ptr, n)); err != nil {
					errs <- err
					return
				}
				if _, err := ctx.CopyToHost(ptr, n*4); err != nil {
					errs <- err
					return
				}
				if err := ctx.Free(ptr); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if d.MemoryInUse() != 0 {
		t.Fatalf("leaked %d bytes after concurrent stress", d.MemoryInUse())
	}
}

func TestDeviceAccessors(t *testing.T) {
	d, clk := newTestDevice()
	if d.Clock() != clk {
		t.Fatal("Clock() must return the configured clock")
	}
	ctx := d.NewContextPreinitialized()
	mod := testModule("accessor_mod", 64, &Kernel{
		Name: "dev_probe",
		Run: func(ec ExecContext) (time.Duration, error) {
			if ec.Device() != d {
				return 0, errors.New("kernel sees the wrong device")
			}
			return 0, nil
		},
	})
	if err := ctx.LoadModule(mod); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Launch("dev_probe", Dim3{X: 1}, Dim3{X: 1}, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoadModuleImage(t *testing.T) {
	d, _ := newTestDevice()
	ctx := d.NewContextPreinitialized()
	mod := testModule("image_load_mod", 256)
	RegisterModule(mod)
	img, err := mod.Binary()
	if err != nil {
		t.Fatal(err)
	}
	// The daemon's path: resolve the wire image, then load what it names.
	m, err := ResolveModule(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.LoadModule(m); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolveModule([]byte("garbage")); err == nil {
		t.Fatal("bogus image must fail")
	}
}

func TestValidateLaunchBounds(t *testing.T) {
	ok := []struct{ grid, block Dim3 }{
		{Dim3{X: 65535, Y: 65535}, Dim3{X: 512}},
		{Dim3{X: 1}, Dim3{X: 16, Y: 16, Z: 2}},
		{Dim3{}, Dim3{}},
	}
	for _, c := range ok {
		if err := validateLaunch(c.grid, c.block); err != nil {
			t.Fatalf("validateLaunch(%v, %v) = %v, want ok", c.grid, c.block, err)
		}
	}
	bad := []struct{ grid, block Dim3 }{
		{Dim3{X: 1}, Dim3{X: 513}},         // block X over limit
		{Dim3{X: 1}, Dim3{X: 1, Y: 513}},   // block Y over limit
		{Dim3{X: 1}, Dim3{X: 23, Y: 23}},   // 529 threads
		{Dim3{X: 65536}, Dim3{X: 1}},       // grid X over limit
		{Dim3{X: 1, Y: 65536}, Dim3{X: 1}}, // grid Y over limit
	}
	for _, c := range bad {
		if err := validateLaunch(c.grid, c.block); !errors.Is(err, ErrInvalidLaunch) {
			t.Fatalf("validateLaunch(%v, %v) = %v, want ErrInvalidLaunch", c.grid, c.block, err)
		}
	}
}

func TestJitterAppliesToDeviceSleeps(t *testing.T) {
	clk := vclock.NewSim()
	noisy := New(Config{Clock: clk, Jitter: fixedJitter{factor: 2}})
	ctx := noisy.NewContextPreinitialized()
	ptr, _ := ctx.Malloc(1 << 20)
	before := clk.Now()
	if err := ctx.CopyToDevice(ptr, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Now()-before, 2*calib.PCIeTransfer(1<<20); got != want {
		t.Fatalf("jittered copy charged %v, want doubled %v", got, want)
	}
}

// fixedJitter scales every duration by a constant factor.
type fixedJitter struct{ factor int }

func (j fixedJitter) Perturb(d time.Duration) time.Duration {
	return d * time.Duration(j.factor)
}
