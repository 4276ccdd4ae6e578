package cudart

import "rcuda/internal/gpu"

// DeviceRuntime extends Runtime with device management and device-side
// memory operations: discovering and selecting among a server's GPUs
// (Figure 1 of the paper shows server nodes owning several accelerators),
// querying device properties, and the memory operations that never cross
// the interconnect — cudaMemset and device-to-device cudaMemcpy.
type DeviceRuntime interface {
	Runtime
	// DeviceCount reports how many GPUs the runtime can reach
	// (cudaGetDeviceCount).
	DeviceCount() (int, error)
	// SetDevice selects the current device for subsequent operations
	// (cudaSetDevice). Allocations and kernels are per-device.
	SetDevice(device int) error
	// DeviceProperties describes the current device
	// (cudaGetDeviceProperties).
	DeviceProperties() (gpu.Properties, error)
	// Memset fills device memory with a byte value (cudaMemset).
	Memset(ptr DevicePtr, value byte, size uint32) error
	// MemcpyDeviceToDevice copies within device memory without touching
	// the host or the network (cudaMemcpy, cudaMemcpyDeviceToDevice).
	MemcpyDeviceToDevice(dst, src DevicePtr, size uint32) error
}

var _ DeviceRuntime = (*Local)(nil)

// DeviceCount implements DeviceRuntime.
func (l *Local) DeviceCount() (int, error) { return len(l.devs), nil }

// SetDevice implements DeviceRuntime: it selects the device subsequent
// operations route to. The first selection of a device creates its context
// — paying the environment initialization delay unless the runtime was
// opened Preinitialized — and loads the application module into it, so
// handles from one device are invalid on another, as in CUDA.
func (l *Local) SetDevice(device int) error {
	if device < 0 || device >= len(l.devs) {
		return ErrorInvalidValue
	}
	if _, ok := l.ctxs[device]; !ok {
		var ctx *gpu.Context
		if l.preinit {
			ctx = l.devs[device].NewContextPreinitialized()
		} else {
			ctx = l.devs[device].NewContext()
		}
		if l.mod != nil {
			if err := ctx.LoadModule(l.mod); err != nil {
				_ = ctx.Destroy()
				return MapError(err)
			}
		}
		l.ctxs[device] = ctx
	}
	l.cur = device
	return nil
}

// DeviceProperties implements DeviceRuntime.
func (l *Local) DeviceProperties() (gpu.Properties, error) {
	return l.dev().Properties(), nil
}

// Memset implements DeviceRuntime.
func (l *Local) Memset(ptr DevicePtr, value byte, size uint32) error {
	return MapError(l.ctx().Memset(uint32(ptr), value, size))
}

// MemcpyDeviceToDevice implements DeviceRuntime.
func (l *Local) MemcpyDeviceToDevice(dst, src DevicePtr, size uint32) error {
	return MapError(l.ctx().CopyDeviceToDevice(uint32(dst), uint32(src), size))
}
