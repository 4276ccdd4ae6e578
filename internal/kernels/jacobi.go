package kernels

import (
	"fmt"
	"time"

	"rcuda/internal/gpu"
)

// Jacobi 2-D stencil module — a third application beyond the paper's two
// case studies, standing in for the computational-fluid-dynamics workloads
// the paper's introduction motivates. An iterative solver is the ideal
// rCUDA citizen: the grid is uploaded once, every iteration is a single
// ~70-byte launch message (the ping-pong buffers swap client-side), and
// only the final grid comes back.
const (
	// JacobiModule is the stencil GPU module.
	JacobiModule = "jacobi2d"
	// JacobiKernel performs one Jacobi relaxation step. Parameters:
	// srcPtr, dstPtr, width, height. Interior points become the average
	// of their four neighbors; boundary rows and columns are copied.
	JacobiKernel = "jacobi_step"
)

// jacobiModuleBytes is the synthetic module image size; the stencil kernel
// is tiny compared to the case-study modules.
const jacobiModuleBytes = 3072

func init() {
	gpu.RegisterModule(&gpu.Module{
		Name:       JacobiModule,
		BinarySize: jacobiModuleBytes,
		Kernels:    []*gpu.Kernel{jacobiKernel()},
	})
}

// JacobiModuleImage returns the stencil module's wire image.
func JacobiModuleImage() ([]byte, error) {
	mod, err := gpu.LookupModule(JacobiModule)
	if err != nil {
		return nil, err
	}
	return mod.Binary()
}

func jacobiKernel() *gpu.Kernel {
	return &gpu.Kernel{
		Name: JacobiKernel,
		Run: func(ec gpu.ExecContext) (time.Duration, error) {
			src, dst, w, h, err := jacobiParams(&ec.Params)
			if err != nil {
				return 0, err
			}
			size := operandBytes(4, w, h)
			ops := [...]gpu.Operand{{Name: "src", Addr: src, Size: size}, {Name: "dst", Addr: dst, Size: size}}
			if err := ec.Resolve(ops[:]); err != nil {
				return 0, err
			}
			srcMem, dstMem := ops[0].Mem, ops[1].Mem
			W, H := int(w), int(h)
			in, inOK := view[float32](srcMem)
			out, outOK := view[float32](dstMem)
			staged := !inOK || !outOK || overlaps(src, dst, size)
			if staged {
				st := stagingPool.Get().(*staging)
				defer stagingPool.Put(st)
				buf := scratch(&st.f32, 2*W*H)
				in, out = buf[:W*H], buf[W*H:]
				loadFloat32(in, srcMem)
			}
			for i := 0; i < H; i++ {
				for j := 0; j < W; j++ {
					idx := i*W + j
					if i == 0 || j == 0 || i == H-1 || j == W-1 {
						out[idx] = in[idx] // fixed boundary
						continue
					}
					out[idx] = 0.25 * (in[idx-W] + in[idx+W] + in[idx-1] + in[idx+1])
				}
			}
			if staged {
				storeFloat32(dstMem, out)
			}
			// The stencil is memory-bound on the C1060: one streaming
			// read and one write of the grid plus neighbor re-reads
			// served mostly from shared memory — model it as three
			// grid sweeps at device-memory bandwidth.
			return 3 * ec.Device().MemsetTime(int64(4*w*h)), nil
		},
	}
}

func jacobiParams(r *gpu.ParamReader) (src, dst, w, h uint32, err error) {
	read := func() uint32 {
		v, e := r.U32()
		if e != nil && err == nil {
			err = e
		}
		return v
	}
	src, dst, w, h = read(), read(), read(), read()
	if err == nil {
		switch {
		case w < 3 || h < 3:
			err = fmt.Errorf("kernels: %s grid %dx%d too small", JacobiKernel, w, h)
		case src == dst:
			err = fmt.Errorf("kernels: %s requires distinct ping-pong buffers", JacobiKernel)
		}
	}
	return src, dst, w, h, err
}

// JacobiCPU performs one reference relaxation step on the host, used by
// tests and the example to verify the device results.
func JacobiCPU(in []float32, w, h int) []float32 {
	out := make([]float32, len(in))
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			idx := i*w + j
			if i == 0 || j == 0 || i == h-1 || j == w-1 {
				out[idx] = in[idx]
				continue
			}
			out[idx] = 0.25 * (in[idx-w] + in[idx+w] + in[idx-1] + in[idx+1])
		}
	}
	return out
}
