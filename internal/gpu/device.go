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
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/vclock"
)

// Paper/testbed constants. The host-device PCIe price and the context
// creation delay are the calibration's (calib.PCIeTransfer,
// calib.ContextInit): the analytic model charges the same ones.
const (
	// DefaultMemoryBytes is the Tesla C1060's 4 GB of device memory.
	DefaultMemoryBytes = 4 << 30
	// memoryMBps is the effective device-memory bandwidth (MiB/s): 102 GB/s
	// theoretical, ~70% achievable on streaming operations.
	memoryMBps = 73000
	// Compute capability of the Tesla C1060.
	capabilityMajor = 1
	capabilityMinor = 3
)

// Jitter perturbs modeled durations; netsim.Noise implements it. A nil
// Jitter is pass-through.
type Jitter interface {
	Perturb(time.Duration) time.Duration
}

// Config parameterizes a simulated device. Zero fields take the Tesla
// C1060 defaults: its name, its 4 GB of memory and a fresh simulated clock.
type Config struct {
	Name        string
	MemoryBytes uint64
	Clock       vclock.Clock
	Jitter      Jitter
}

// Device is a simulated GPU. All operations are safe for concurrent use.
// The device-wide lock, mu, guards only the allocator: its block list and
// byte counts, taken by Malloc, Free, RestoreState, Destroy and the two
// counters. Reading and writing device memory — copies, memset, kernel
// operands — resolves against the calling context's own table of blocks
// under that context's lock, and kernels run under no lock at all, so
// contexts on one device contend only when they allocate or free.
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
	return capabilityMajor, capabilityMinor
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

	mu sync.Mutex
	// loaded is the context's kernelSet, nil before the first LoadModule
	// and after Destroy. LoadModule publishes a new set instead of writing
	// to the old one, so a launch finds its kernel without c.mu.
	loaded atomic.Pointer[kernelSet]
	// owned is every block this context allocated or restored, sorted by
	// address: the only memory its accesses resolve against.
	owned []*block
	tl    timeline
	dead  bool
}

// ErrContextDestroyed is returned by operations on a released context.
var ErrContextDestroyed = errors.New("gpu: context destroyed")

// NewContext creates a context, paying the CUDA environment initialization
// delay. The rCUDA daemon calls this ahead of client arrival precisely to
// hide this cost (the paper's explanation for remote-over-40GI beating the
// local GPU at m=4096).
func (d *Device) NewContext() *Context {
	d.sleep(calib.ContextInit)
	return d.newContextNoInit()
}

// NewContextPreinitialized creates a context without the initialization
// delay, modeling a context that was created before timing started.
func (d *Device) NewContextPreinitialized() *Context { return d.newContextNoInit() }

func (d *Device) newContextNoInit() *Context {
	return &Context{dev: d, tl: newTimeline()}
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
	cur := c.loaded.Load()
	if cur != nil && slices.ContainsFunc(cur.modules, func(l *Module) bool { return l.Name == m.Name }) {
		return fmt.Errorf("gpu: module %q already loaded", m.Name)
	}
	next := m.set
	if cur != nil || next == nil {
		var err error
		if next, err = cur.with(m); err != nil {
			return err
		}
	}
	c.loaded.Store(next)
	return nil
}

// kernelSet is what a context has loaded: the modules, in load order, and
// every kernel they define by name. A published set never changes, so a
// registered module's own set (Module.set) serves every context that loads
// that module alone — the daemon's every session — and loading it makes no
// map.
type kernelSet struct {
	modules []*Module
	byName  map[string]*Kernel
}

// with returns a new set holding s's modules and m; s may be nil. Two
// definitions of one kernel name are an error.
func (s *kernelSet) with(m *Module) (*kernelSet, error) {
	var mods []*Module
	var known map[string]*Kernel
	if s != nil {
		mods, known = s.modules, s.byName
	}
	next := &kernelSet{
		modules: append(slices.Clip(mods), m),
		byName:  make(map[string]*Kernel, len(known)+len(m.Kernels)),
	}
	maps.Copy(next.byName, known)
	for _, k := range m.Kernels {
		if _, dup := next.byName[k.Name]; dup {
			return nil, fmt.Errorf("gpu: kernel %q defined by two loaded modules", k.Name)
		}
		next.byName[k.Name] = k
	}
	return next, nil
}

// Malloc allocates device memory.
func (c *Context) Malloc(size uint32) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return 0, err
	}
	c.dev.mu.Lock()
	b, err := c.dev.alloc.alloc(size)
	c.dev.mu.Unlock()
	if err != nil {
		return 0, err
	}
	c.own(b)
	return b.addr, nil
}

// own adds b to the context's table, keeping it sorted by address. The
// caller holds c.mu.
func (c *Context) own(b *block) {
	i := sort.Search(len(c.owned), func(i int) bool { return c.owned[i].addr > b.addr })
	c.owned = slices.Insert(c.owned, i, b)
}

// Free releases a device allocation owned by this context.
func (c *Context) Free(addr uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return err
	}
	i := findBlock(c.owned, addr)
	if i < 0 || c.owned[i].addr != addr {
		return fmt.Errorf("%w: %#x not owned by this context", ErrInvalidDevPtr, addr)
	}
	c.dev.mu.Lock()
	err := c.dev.alloc.free(addr)
	c.dev.mu.Unlock()
	if err != nil {
		return err
	}
	c.owned = slices.Delete(c.owned, i, i+1)
	return nil
}

// region resolves [addr, addr+size) to the backing bytes of an allocation
// this context owns. Every memory access a context makes — host copies in
// either direction, memset, device-to-device copies, kernel operands, the
// view a transport lands a payload in — resolves here, so on a shared
// device a session reaches only what it allocated (or restored): another
// context's block is as invalid a pointer as unallocated memory. The range
// must lie within a single allocation, as in CUDA, where arithmetic past an
// allocation is undefined. Only the context's own table is searched, so the
// device's lock is never taken. The caller holds c.mu.
func (c *Context) region(addr, size uint32) ([]byte, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	i := findBlock(c.owned, addr)
	if i < 0 {
		return nil, fmt.Errorf("%w: %#x not owned by this context", ErrInvalidDevPtr, addr)
	}
	b := c.owned[i]
	off := addr - b.addr
	if uint64(off)+uint64(size) > uint64(b.size) {
		return nil, fmt.Errorf("%w: [%#x,+%d) overruns allocation of %d bytes at %#x",
			ErrInvalidDevPtr, addr, size, b.size, b.addr)
	}
	return b.data[off : uint64(off)+uint64(size)], nil
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
	c.dev.sleep(calib.PCIeTransfer(int64(len(data))))
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
	c.dev.sleep(calib.PCIeTransfer(int64(size)))
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
	for _, b := range c.owned {
		total += roundUp(b.size)
	}
	return total
}

// OwnedCount returns the number of live allocations this context holds.
func (c *Context) OwnedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.owned)
}

// ExecContext is what a kernel sees when it runs. Each launch passes its
// kernel a copy, so a launch builds nothing on the heap; Params reads a
// buffer the caller reuses after the launch, so a kernel must not retain
// it.
type ExecContext struct {
	ctx    *Context
	Grid   Dim3
	Block  Dim3
	Shared uint32
	Params ParamReader
}

// Device returns the device the kernel runs on.
func (ec *ExecContext) Device() *Device { return ec.ctx.dev }

// Operand is one device range a kernel reads or writes: Size bytes at Addr.
// The size is 64-bit so a kernel can pass a product of launch parameters
// without it wrapping; anything past the 32-bit device address space is the
// same invalid-pointer error as any other overrun. Resolve sets Mem.
type Operand struct {
	Name string // prefixes the operand's resolution error, if set
	Addr uint32
	Size uint64
	Mem  []byte
}

// Resolve resolves every operand to its backing bytes for the duration of
// the kernel, under one acquisition of the context's lock, and is how a
// kernel reaches device memory. It stops at the first operand that does not
// lie within one allocation of this context, naming it in the error.
func (ec *ExecContext) Resolve(ops []Operand) error {
	c := ec.ctx
	c.mu.Lock()
	for i := range ops {
		op := &ops[i]
		var err error
		if op.Size > math.MaxUint32 {
			err = fmt.Errorf("%w: [%#x,+%d) overruns the device address space",
				ErrInvalidDevPtr, op.Addr, op.Size)
		} else {
			op.Mem, err = c.region(op.Addr, uint32(op.Size))
		}
		if err != nil {
			c.mu.Unlock()
			if op.Name != "" {
				err = fmt.Errorf("%s: %w", op.Name, err)
			}
			return err
		}
	}
	c.mu.Unlock()
	return nil
}

// Mem is Resolve's one-range case: the backing bytes of [addr, addr+size).
func (ec *ExecContext) Mem(addr uint32, size uint64) ([]byte, error) {
	op := [1]Operand{{Addr: addr, Size: size}}
	err := ec.Resolve(op[:])
	return op[0].Mem, err
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
	c.dev.sleep(cost)
	return nil
}

// kernel resolves a kernel name against the loaded modules. A hit takes no
// lock (see Context.loaded); a miss, which is also what a released
// context's launches find, takes c.mu to say why.
func (c *Context) kernel(name string) (*Kernel, error) {
	loaded := c.loaded.Load()
	if loaded != nil {
		if k, ok := loaded.byName[name]; ok {
			return k, nil
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return nil, err
	}
	var names []string
	if loaded != nil {
		for _, m := range loaded.modules {
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	return nil, fmt.Errorf("%w: %q (loaded modules: %v)", ErrUnknownKernel, name, names)
}

// execute runs k against device memory and returns its modeled cost (zero
// for a kernel without a cost model). params is only read, and only until
// execute returns, so it may alias a buffer the caller reuses afterwards.
func (c *Context) execute(k *Kernel, grid, block Dim3, shared uint32, params []byte) (time.Duration, error) {
	cost, err := k.Run(ExecContext{ctx: c, Grid: grid, Block: block, Shared: shared, Params: ParamReader{buf: params}})
	if err != nil {
		return 0, fmt.Errorf("gpu: kernel %q: %w", k.Name, err)
	}
	return cost, nil
}

// Destroy releases the context and frees every allocation it owns.
func (c *Context) Destroy() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return nil
	}
	c.dead = true
	c.loaded.Store(nil)
	c.dev.mu.Lock()
	defer c.dev.mu.Unlock()
	var firstErr error
	for _, b := range c.owned {
		if err := c.dev.alloc.free(b.addr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.owned = nil
	return firstErr
}
