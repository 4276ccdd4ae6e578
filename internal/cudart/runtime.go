package cudart

import (
	"errors"
	"math"

	"rcuda/internal/gpu"
)

// DevicePtr is a 32-bit device address, as in the CUDA 2.3 / Tesla C1060
// era the paper targets (Table I carries 4-byte device pointers).
type DevicePtr uint32

// Dim3 re-exports the launch geometry type.
type Dim3 = gpu.Dim3

// Runtime is the CUDA Runtime API subset the middleware virtualizes. Both
// the local implementation (this package) and the remote client (package
// rcuda) satisfy it, so an application is oblivious to where the GPU lives.
//
// All operations are synchronous, matching the paper's scope ("only
// applications making use of synchronous data transfers are covered").
type Runtime interface {
	// Malloc allocates size bytes of device memory (cudaMalloc).
	Malloc(size uint32) (DevicePtr, error)
	// Free releases a device allocation (cudaFree).
	Free(ptr DevicePtr) error
	// MemcpyToDevice copies host data to device memory
	// (cudaMemcpy, cudaMemcpyHostToDevice).
	MemcpyToDevice(dst DevicePtr, src []byte) error
	// MemcpyToHost copies len(dst) bytes of device memory into dst
	// (cudaMemcpy, cudaMemcpyDeviceToHost).
	MemcpyToHost(dst []byte, src DevicePtr) error
	// Launch executes a kernel by name with the given geometry, dynamic
	// shared memory size, and packed parameter block (cudaLaunch plus the
	// folded-in cudaConfigureCall/cudaSetupArgument state).
	Launch(name string, grid, block Dim3, shared uint32, params []byte) error
	// DeviceSynchronize blocks until the device is idle
	// (cudaDeviceSynchronize; trivially immediate for synchronous work).
	DeviceSynchronize() error
	// Capability returns the device compute capability.
	Capability() (major, minor uint32)
	// Close finalizes the runtime, releasing the context and, for a
	// remote runtime, the connection and the server-side session.
	Close() error
}

// Local is the Runtime over one or more simulated devices on the same
// node — the "local GPU" configuration the paper compares against, or a
// multi-GPU node when opened with ExtraDevices. Allocations, copies, and
// launches route to the device selected with SetDevice; each device gets
// its own lazily created context, mirroring the server-side session.
type Local struct {
	devs []*gpu.Device
	ctxs map[int]*gpu.Context
	cur  int
	mod  *gpu.Module
	// preinit records whether later-selected devices also skip the CUDA
	// environment initialization delay, matching how the first context was
	// opened.
	preinit bool
}

var _ Runtime = (*Local)(nil)

// LocalOption configures OpenLocal.
type LocalOption func(*localOptions)

type localOptions struct {
	preinitialized bool
	extra          []*gpu.Device
}

// Preinitialized opens the runtime on a context created before timing
// started, skipping the CUDA environment initialization delay — the rCUDA
// daemon's trick, exposed for the ablation benchmark.
func Preinitialized() LocalOption {
	return func(o *localOptions) { o.preinitialized = true }
}

// ExtraDevices attaches additional GPUs beyond the primary one, the local
// counterpart of the server's WithDevices: DeviceCount reports them and
// SetDevice routes subsequent operations to the selected device.
func ExtraDevices(extra ...*gpu.Device) LocalOption {
	return func(o *localOptions) { o.extra = append(o.extra, extra...) }
}

// OpenLocal initializes the CUDA runtime on a device and loads the
// application's GPU module, paying the environment initialization delay
// unless Preinitialized is given. Device 0 is current initially.
func OpenLocal(dev *gpu.Device, module *gpu.Module, opts ...LocalOption) (*Local, error) {
	var o localOptions
	for _, opt := range opts {
		opt(&o)
	}
	var ctx *gpu.Context
	if o.preinitialized {
		ctx = dev.NewContextPreinitialized()
	} else {
		ctx = dev.NewContext()
	}
	if module != nil {
		if err := ctx.LoadModule(module); err != nil {
			_ = ctx.Destroy()
			return nil, err
		}
	}
	return &Local{
		devs:    append([]*gpu.Device{dev}, o.extra...),
		ctxs:    map[int]*gpu.Context{0: ctx},
		mod:     module,
		preinit: o.preinitialized,
	}, nil
}

// dev and ctx resolve the currently selected device and its context.
func (l *Local) dev() *gpu.Device  { return l.devs[l.cur] }
func (l *Local) ctx() *gpu.Context { return l.ctxs[l.cur] }

// Malloc implements Runtime.
func (l *Local) Malloc(size uint32) (DevicePtr, error) {
	ptr, err := l.ctx().Malloc(size)
	if err != nil {
		return 0, MapError(err)
	}
	return DevicePtr(ptr), nil
}

// Free implements Runtime.
func (l *Local) Free(ptr DevicePtr) error {
	return MapError(l.ctx().Free(uint32(ptr)))
}

// MemcpyToDevice implements Runtime.
func (l *Local) MemcpyToDevice(dst DevicePtr, src []byte) error {
	return MapError(l.ctx().CopyToDevice(uint32(dst), src))
}

// MemcpyToHost implements Runtime.
func (l *Local) MemcpyToHost(dst []byte, src DevicePtr) error {
	view, err := l.ctx().HostView(uint32(src), uint32(len(dst)))
	if err != nil {
		return MapError(err)
	}
	copy(dst, view)
	return nil
}

// Launch implements Runtime.
func (l *Local) Launch(name string, grid, block Dim3, shared uint32, params []byte) error {
	return MapError(l.ctx().Launch(name, grid, block, shared, params))
}

// DeviceSynchronize implements Runtime: it waits out every pending
// asynchronous operation of this context.
func (l *Local) DeviceSynchronize() error { return MapError(l.ctx().Synchronize()) }

// Capability implements Runtime.
func (l *Local) Capability() (major, minor uint32) { return l.dev().Capability() }

// Close implements Runtime: it destroys every per-device context that was
// created, returning the first error while still attempting the rest. The
// destroyed contexts stay in place so use-after-close surfaces as
// cudaErrorInitializationError rather than a crash.
func (l *Local) Close() error {
	var first error
	for d := 0; d < len(l.devs); d++ {
		if ctx, ok := l.ctxs[d]; ok {
			if err := ctx.Destroy(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// MapError translates a device-layer error into its cudaError_t value, the
// one table behind both the local runtime's results and the daemon's wire
// codes, so local and remote executions surface identical codes. Nil stays
// nil, and an error that already is a cudart Error passes through.
func MapError(err error) error {
	// The nil case returns before ce is declared: errors.As makes &ce
	// escape, and a successful op must not pay a heap allocation for it.
	if err == nil {
		return nil
	}
	var ce Error
	switch {
	case errors.As(err, &ce):
		return ce
	case errors.Is(err, gpu.ErrOutOfMemory):
		return ErrorMemoryAllocation
	case errors.Is(err, gpu.ErrZeroSize):
		return ErrorInvalidValue
	case errors.Is(err, gpu.ErrInvalidDevPtr):
		return ErrorInvalidDevicePointer
	case errors.Is(err, gpu.ErrUnknownKernel):
		return ErrorLaunchFailure
	case errors.Is(err, gpu.ErrInvalidLaunch):
		return ErrorInvalidConfiguration
	case errors.Is(err, gpu.ErrInvalidStream), errors.Is(err, gpu.ErrInvalidEvent):
		return ErrorInvalidValue
	case errors.Is(err, gpu.ErrContextDestroyed), errors.Is(err, gpu.ErrUnknownModule):
		return ErrorInitialization
	default:
		return ErrorUnknown
	}
}

// --- Host-side data helpers -------------------------------------------------

// Float32Bytes serializes a float32 slice to the little-endian layout device
// memory uses. This marshaling copy is part of the middleware overhead the
// paper folds into its fixed time.
func Float32Bytes(xs []float32) []byte {
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		bits := math.Float32bits(x)
		out[4*i] = byte(bits)
		out[4*i+1] = byte(bits >> 8)
		out[4*i+2] = byte(bits >> 16)
		out[4*i+3] = byte(bits >> 24)
	}
	return out
}

// BytesFloat32 deserializes little-endian bytes into float32s. The length
// of b must be a multiple of 4.
func BytesFloat32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		bits := uint32(b[4*i]) | uint32(b[4*i+1])<<8 | uint32(b[4*i+2])<<16 | uint32(b[4*i+3])<<24
		out[i] = math.Float32frombits(bits)
	}
	return out
}

// Complex64Bytes serializes complex values as interleaved little-endian
// real/imaginary float32 pairs, the device layout of the FFT case study.
func Complex64Bytes(xs []complex64) []byte {
	fs := make([]float32, 2*len(xs))
	for i, v := range xs {
		fs[2*i], fs[2*i+1] = real(v), imag(v)
	}
	return Float32Bytes(fs)
}

// BytesComplex64 deserializes interleaved float32 pairs into complex
// values. The length of b must be a multiple of 8.
func BytesComplex64(b []byte) []complex64 {
	fs := BytesFloat32(b)
	out := make([]complex64, len(fs)/2)
	for i := range out {
		out[i] = complex(fs[2*i], fs[2*i+1])
	}
	return out
}
