// Package gpu simulates the CUDA device of the paper's testbed: an NVIDIA
// Tesla C1060 (compute capability 1.3, 4 GB of device memory) attached to a
// PCIe 2.0 x16 port with a measured effective host–device bandwidth of
// 5,743 MB/s.
//
// The simulation is functional *and* timed: kernels really execute (their
// results live in host-backed device memory and are checked by tests), while
// the time they take is drawn from calibrated cost models and advances the
// simulation's Clock. Running against a wall clock degrades gracefully —
// models simply sleep.
package gpu

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rcuda/internal/vclock"
)

// Paper/testbed constants.
const (
	// DefaultMemoryBytes is the Tesla C1060's 4 GB of device memory.
	DefaultMemoryBytes = 4 << 30
	// DefaultPCIeMBps is the measured effective bandwidth between host
	// and device memory (MiB/s); the PCIe 2.0 x16 link's peak is 8 GB/s.
	DefaultPCIeMBps = 5743
	// DefaultInitTime approximates the CUDA environment initialization
	// delay that the rCUDA daemon hides by pre-initializing the context.
	DefaultInitTime = 800 * time.Millisecond
	// Capability of the Tesla C1060.
	DefaultCapabilityMajor = 1
	DefaultCapabilityMinor = 3
)

// Jitter perturbs modeled durations; netsim.Noise implements it. A nil
// Jitter is pass-through.
type Jitter interface {
	Perturb(time.Duration) time.Duration
}

// Config parameterizes a simulated device. Zero fields take the Tesla
// C1060 defaults above.
type Config struct {
	Name            string
	MemoryBytes     uint64
	PCIeMBps        float64
	MemoryMBps      float64
	InitTime        time.Duration
	CapabilityMajor uint32
	CapabilityMinor uint32
	Clock           vclock.Clock
	Jitter          Jitter
}

// Device is a simulated GPU. All operations are safe for concurrent use;
// the device serializes memory operations and kernel launches, modeling the
// single-GPU time multiplexing of the paper's server.
type Device struct {
	cfg Config

	mu    sync.Mutex
	alloc *allocator
}

// Dim3 is a CUDA grid/block dimension triple.
type Dim3 struct{ X, Y, Z uint32 }

// Count returns the number of threads/blocks the dimension spans; zero
// components count as one, as in CUDA's dim3 constructor defaults.
func (d Dim3) Count() uint64 {
	f := func(v uint32) uint64 {
		if v == 0 {
			return 1
		}
		return uint64(v)
	}
	return f(d.X) * f(d.Y) * f(d.Z)
}

// New creates a simulated device.
func New(cfg Config) *Device {
	if cfg.Name == "" {
		cfg.Name = "Tesla C1060 (simulated)"
	}
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = DefaultMemoryBytes
	}
	if cfg.PCIeMBps == 0 {
		cfg.PCIeMBps = DefaultPCIeMBps
	}
	if cfg.MemoryMBps == 0 {
		cfg.MemoryMBps = DefaultMemoryMBps
	}
	if cfg.InitTime == 0 {
		cfg.InitTime = DefaultInitTime
	}
	if cfg.CapabilityMajor == 0 {
		cfg.CapabilityMajor = DefaultCapabilityMajor
		cfg.CapabilityMinor = DefaultCapabilityMinor
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.NewSim()
	}
	return &Device{cfg: cfg, alloc: newAllocator(cfg.MemoryBytes)}
}

// Name returns the device name.
func (d *Device) Name() string { return d.cfg.Name }

// Clock returns the device's time source.
func (d *Device) Clock() vclock.Clock { return d.cfg.Clock }

// Capability returns the compute capability pair sent during rCUDA
// initialization.
func (d *Device) Capability() (major, minor uint32) {
	return d.cfg.CapabilityMajor, d.cfg.CapabilityMinor
}

// MemoryBytes returns the device memory capacity.
func (d *Device) MemoryBytes() uint64 { return d.cfg.MemoryBytes }

// MemoryInUse returns currently allocated device bytes.
func (d *Device) MemoryInUse() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alloc.inUse()
}

// Allocations returns the number of live device allocations.
func (d *Device) Allocations() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alloc.count()
}

// PCIeTime models a host<->device transfer of n bytes across the PCIe bus.
func (d *Device) PCIeTime(bytes int64) time.Duration {
	ms := float64(bytes) / (d.cfg.PCIeMBps * (1 << 20)) * 1e3
	return time.Duration(ms * float64(time.Millisecond))
}

func (d *Device) sleep(t time.Duration) {
	if d.cfg.Jitter != nil {
		t = d.cfg.Jitter.Perturb(t)
	}
	d.cfg.Clock.Sleep(t)
}

// Context is a CUDA context on the device. Contexts share the device's
// physical memory but each tracks its own loaded modules and owned
// allocations, so releasing a context frees everything it allocated — the
// behavior the rCUDA server relies on when a client disconnects.
type Context struct {
	dev *Device

	mu      sync.Mutex
	modules map[string]*Module
	kernels map[string]*Kernel
	owned   map[uint32]uint32 // addr -> requested size
	tl      *timeline
	dead    bool
	// spare is the launch frame the last execute left behind (see
	// launchFrame).
	spare atomic.Pointer[launchFrame]
}

// ErrContextDestroyed is returned by operations on a released context.
var ErrContextDestroyed = errors.New("gpu: context destroyed")

// NewContext creates a context, paying the CUDA environment initialization
// delay. The rCUDA daemon calls this ahead of client arrival precisely to
// hide this cost (the paper's explanation for remote-over-40GI beating the
// local GPU at m=4096).
func (d *Device) NewContext() *Context {
	d.sleep(d.cfg.InitTime)
	return d.newContextNoInit()
}

// NewContextPreinitialized creates a context without the initialization
// delay, modeling a context that was created before timing started.
func (d *Device) NewContextPreinitialized() *Context { return d.newContextNoInit() }

func (d *Device) newContextNoInit() *Context {
	return &Context{
		dev:     d,
		modules: make(map[string]*Module),
		kernels: make(map[string]*Kernel),
		owned:   make(map[uint32]uint32),
		tl:      newTimeline(),
	}
}

func (c *Context) check() error {
	if c.dead {
		return ErrContextDestroyed
	}
	return nil
}

// LoadModule makes a module's kernels launchable in this context.
func (c *Context) LoadModule(m *Module) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return err
	}
	if _, dup := c.modules[m.Name]; dup {
		return fmt.Errorf("gpu: module %q already loaded", m.Name)
	}
	for _, k := range m.Kernels {
		if _, dup := c.kernels[k.Name]; dup {
			return fmt.Errorf("gpu: kernel %q defined by two loaded modules", k.Name)
		}
	}
	c.modules[m.Name] = m
	for _, k := range m.Kernels {
		c.kernels[k.Name] = k
	}
	return nil
}

// LoadModuleImage resolves a wire-format module image and loads it.
func (c *Context) LoadModuleImage(img []byte) error {
	m, err := ResolveModule(img)
	if err != nil {
		return err
	}
	return c.LoadModule(m)
}

// Malloc allocates device memory.
func (c *Context) Malloc(size uint32) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return 0, err
	}
	c.dev.mu.Lock()
	addr, err := c.dev.alloc.alloc(size)
	c.dev.mu.Unlock()
	if err != nil {
		return 0, err
	}
	c.owned[addr] = size
	return addr, nil
}

// Free releases a device allocation owned by this context.
func (c *Context) Free(addr uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return err
	}
	if _, ok := c.owned[addr]; !ok {
		return fmt.Errorf("%w: %#x not owned by this context", ErrInvalidDevPtr, addr)
	}
	c.dev.mu.Lock()
	err := c.dev.alloc.free(addr)
	c.dev.mu.Unlock()
	if err != nil {
		return err
	}
	delete(c.owned, addr)
	return nil
}

// region resolves [addr, addr+size) to the backing bytes of an allocation
// this context owns. Every memory access a context makes — host copies in
// either direction, memset, device-to-device copies, kernel operands, the
// view a transport lands a payload in — resolves here, so on a shared
// device a session reaches only what it allocated (or restored): another
// context's block is as invalid a pointer as unallocated memory. The caller
// holds c.mu.
func (c *Context) region(addr, size uint32) ([]byte, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	c.dev.mu.Lock()
	base, region, err := c.dev.alloc.region(addr, size)
	c.dev.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if _, ok := c.owned[base]; !ok {
		return nil, fmt.Errorf("%w: %#x not owned by this context", ErrInvalidDevPtr, addr)
	}
	return region, nil
}

// Region returns device memory [addr, addr+size) of this context as host
// bytes, without touching them or the clock: the view a transport lands an
// arriving payload in before CopyToDevice charges for it. The view is valid
// until the allocation is freed.
func (c *Context) Region(addr, size uint32) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.region(addr, size)
}

// place puts data in region. A transport that landed the payload in the
// region's view (see Region) hands the same memory back as data; there is
// then nothing to move, and what remains of the copy is its modeled time.
func place(region, data []byte) {
	if len(data) > 0 && &region[0] != &data[0] {
		copy(region, data)
	}
}

// CopyToDevice writes host data into device memory, advancing the clock by
// the modeled PCIe transfer time. Like a default-stream cudaMemcpy, it
// first waits out any pending asynchronous work.
func (c *Context) CopyToDevice(dst uint32, data []byte) error {
	if err := c.Synchronize(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	region, err := c.region(dst, uint32(len(data)))
	if err != nil {
		return err
	}
	place(region, data)
	c.dev.sleep(c.dev.PCIeTime(int64(len(data))))
	return nil
}

// HostView is the device half of a device-to-host copy whose bytes the
// caller moves itself: it waits out pending asynchronous work, advances the
// clock by the modeled PCIe transfer time, and returns the device memory
// to read from. The rCUDA server sends the view straight to the socket. It
// is valid until the allocation is freed and must not be written.
func (c *Context) HostView(src, size uint32) ([]byte, error) {
	if err := c.Synchronize(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	region, err := c.region(src, size)
	if err != nil {
		return nil, err
	}
	c.dev.sleep(c.dev.PCIeTime(int64(size)))
	return region, nil
}

// CopyToHost reads device memory into a fresh host buffer, advancing the
// clock by the modeled PCIe transfer time. Like a default-stream
// cudaMemcpy, it first waits out any pending asynchronous work.
func (c *Context) CopyToHost(src uint32, size uint32) ([]byte, error) {
	region, err := c.HostView(src, size)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, region)
	return out, nil
}

// OwnedBytes returns the device bytes this context holds, charged at the
// allocator's granularity — the figure per-session quotas are enforced
// against. Zero after Destroy.
func (c *Context) OwnedBytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total uint64
	for _, size := range c.owned {
		total += roundUp(size)
	}
	return total
}

// OwnedCount returns the number of live allocations this context holds.
func (c *Context) OwnedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.owned)
}

// ExecContext is what a kernel sees when it runs. It is valid only for the
// duration of the call it is passed to: the launch path reuses it, so a
// kernel must not retain it or its Params.
type ExecContext struct {
	ctx    *Context
	Grid   Dim3
	Block  Dim3
	Shared uint32
	Params *ParamReader
}

// Device returns the device the kernel runs on.
func (ec *ExecContext) Device() *Device { return ec.ctx.dev }

// Mem resolves a device pointer range to its backing bytes for the duration
// of the kernel. Kernels use this to read inputs and write outputs. The
// size is 64-bit so a kernel can pass a product of launch parameters
// without it wrapping; anything past the 32-bit device address space is
// the same invalid-pointer error as any other overrun.
func (ec *ExecContext) Mem(addr uint32, size uint64) ([]byte, error) {
	if size > math.MaxUint32 {
		return nil, fmt.Errorf("%w: [%#x,+%d) overruns the device address space",
			ErrInvalidDevPtr, addr, size)
	}
	ec.ctx.mu.Lock()
	defer ec.ctx.mu.Unlock()
	return ec.ctx.region(addr, uint32(size))
}

// ErrUnknownKernel is returned when launching a kernel no loaded module
// provides.
var ErrUnknownKernel = errors.New("gpu: unknown kernel")

// ErrInvalidLaunch is returned for launch geometries the device cannot
// execute.
var ErrInvalidLaunch = errors.New("gpu: invalid launch configuration")

// Compute-capability 1.3 launch limits (Tesla C1060).
const (
	maxThreadsPerBlock = 512
	maxBlockXY         = 512
	maxBlockZ          = 64
	maxGridXY          = 65535
)

// validateLaunch enforces the device's launch limits; zero dimensions
// default to one, as in CUDA's dim3 constructor.
func validateLaunch(grid, block Dim3) error {
	if block.Count() > maxThreadsPerBlock {
		return fmt.Errorf("%w: %d threads per block exceeds %d",
			ErrInvalidLaunch, block.Count(), maxThreadsPerBlock)
	}
	if block.X > maxBlockXY || block.Y > maxBlockXY || block.Z > maxBlockZ {
		return fmt.Errorf("%w: block (%d,%d,%d) exceeds (%d,%d,%d)",
			ErrInvalidLaunch, block.X, block.Y, block.Z, maxBlockXY, maxBlockXY, maxBlockZ)
	}
	if grid.X > maxGridXY || grid.Y > maxGridXY || grid.Z > 1 {
		return fmt.Errorf("%w: grid (%d,%d,%d) exceeds (%d,%d,1)",
			ErrInvalidLaunch, grid.X, grid.Y, grid.Z, maxGridXY, maxGridXY)
	}
	return nil
}

// Launch executes a kernel synchronously: it runs the kernel's Go
// implementation against device memory and advances the clock by the
// kernel's modeled cost.
func (c *Context) Launch(name string, grid, block Dim3, shared uint32, params []byte) error {
	if err := validateLaunch(grid, block); err != nil {
		return err
	}
	if err := c.Synchronize(); err != nil {
		return err
	}
	k, err := c.kernel(name)
	if err != nil {
		return err
	}
	cost, err := c.execute(k, grid, block, shared, params)
	if err != nil {
		return err
	}
	if k.Cost != nil {
		c.dev.sleep(cost)
	}
	return nil
}

// kernel resolves a kernel name against the loaded modules.
func (c *Context) kernel(name string) (*Kernel, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return nil, err
	}
	k, ok := c.kernels[name]
	if !ok {
		names := make([]string, 0, len(c.modules))
		for n := range c.modules {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("%w: %q (loaded modules: %v)", ErrUnknownKernel, name, names)
	}
	return k, nil
}

// launchFrame is the state one kernel execution needs: the ExecContext the
// kernel sees and the parameter reader it points at. A context keeps the
// frame of its last launch for the next, so a steady-state launch
// allocates nothing on its way to the kernel — not even after a GC cycle,
// which would empty a sync.Pool. Launches that overlap on one context find
// the spare taken and build their own.
type launchFrame struct {
	ec     ExecContext
	params ParamReader
}

// execute runs k against device memory and returns its modeled cost (zero
// for a kernel without a cost model). params is only read, and only until
// execute returns, so it may alias a buffer the caller reuses afterwards.
func (c *Context) execute(k *Kernel, grid, block Dim3, shared uint32, params []byte) (time.Duration, error) {
	f := c.spare.Swap(nil)
	if f == nil {
		f = new(launchFrame)
	}
	defer func() {
		*f = launchFrame{} // do not pin params past the launch
		c.spare.Store(f)
	}()
	f.params = ParamReader{buf: params}
	f.ec = ExecContext{ctx: c, Grid: grid, Block: block, Shared: shared, Params: &f.params}
	if err := k.Run(&f.ec); err != nil {
		return 0, fmt.Errorf("gpu: kernel %q: %w", k.Name, err)
	}
	if k.Cost == nil {
		return 0, nil
	}
	// Cost models must see the same parameter view Run did.
	f.params.off = 0
	return k.Cost(&f.ec), nil
}

// Destroy releases the context and frees every allocation it owns.
func (c *Context) Destroy() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return nil
	}
	c.dead = true
	c.dev.mu.Lock()
	defer c.dev.mu.Unlock()
	var firstErr error
	for addr := range c.owned {
		if err := c.dev.alloc.free(addr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.owned = nil
	return firstErr
}
