// Package kernels provides the GPU modules of the two case studies: a
// single-precision matrix-multiply kernel and a batched 512-point FFT
// kernel, standing in for Volkov's implementations on the Tesla C1060.
//
// Each kernel does two things, per the gpu package contract: Run computes
// real results against device memory (validated by tests), and returns the
// calibrated Tesla C1060 execution time that advances the simulation clock,
// computed from the parameters it read once. Modules register themselves
// with the device's module registry at package initialization, so importing
// this package (directly, or through the server binary) makes the case
// studies launchable; the module binary images have the exact sizes the
// paper reports (21,486 and 7,852 bytes).
package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"rcuda/internal/blas"
	"rcuda/internal/calib"
	"rcuda/internal/fft"
	"rcuda/internal/gpu"
)

// Module and kernel names.
const (
	// MMModule is the matrix-multiply GPU module of the first case study.
	MMModule = "volkov_sgemm"
	// SgemmKernel computes C = A·B on square m×m single-precision
	// matrices. Parameters: aPtr, bPtr, cPtr, m.
	SgemmKernel = "sgemmNN"

	// FFTModule is the batched-FFT GPU module of the second case study.
	FFTModule = "volkov_fft"
	// FFTKernel computes `batch` independent in-place 512-point complex
	// transforms. Parameters: dataPtr, batch, direction (0 forward,
	// 1 inverse).
	FFTKernel = "fft512"
)

func init() {
	gpu.RegisterModule(&gpu.Module{
		Name:       MMModule,
		BinarySize: calib.ModuleBytes(calib.MM),
		Kernels:    []*gpu.Kernel{sgemmKernel()},
	})
	gpu.RegisterModule(&gpu.Module{
		Name:       FFTModule,
		BinarySize: calib.ModuleBytes(calib.FFT),
		Kernels:    []*gpu.Kernel{fftKernel()},
	})
}

// ModuleFor returns the registered module for a case study.
func ModuleFor(cs calib.CaseStudy) (*gpu.Module, error) {
	if cs == calib.MM {
		return gpu.LookupModule(MMModule)
	}
	return gpu.LookupModule(FFTModule)
}

// staging is the operand scratch of a kernel execution that cannot compute
// on device memory in place (see view): device memory is little-endian bytes
// and the math packages compute on float32/complex64, so the slow path
// decodes its inputs into a staging area, computes there, and encodes the
// result into device memory. Every input is staged before any output byte
// is written, so operands that alias or overlap the output behave as if the
// kernel had snapshotted them — which is why an output overlapping an input
// takes this path however well aligned it is. Staging areas are pooled: Run
// borrows one and returns it before it returns, and nothing outside that
// call ever sees it, so steady-state launches allocate nothing and
// concurrent launches never share one.
type staging struct {
	f32 []float32
	c64 []complex64
}

var stagingPool = sync.Pool{New: func() any { return new(staging) }}

// scratch returns n elements of *buf with unspecified contents, growing the
// buffer the staging area keeps when it is too small.
func scratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// operandBytes returns elemSize·x·y, the byte size of a kernel operand,
// saturated at the top of uint64. Launch parameters arrive off the wire; a
// product left to wrap could come out small enough to pass every bounds
// check (4·32768² is 0 in 32 bits), so sizes are computed here and handed
// to ExecContext.Resolve, which rejects whatever the allocation cannot hold
// before the kernel stages anything.
func operandBytes(elemSize, x, y uint32) uint64 {
	hi, lo := bits.Mul64(uint64(x)*uint64(y), uint64(elemSize))
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// loadFloat32 decodes len(dst) little-endian float32 values from src, two
// per 8-byte read while both remain.
func loadFloat32(dst []float32, src []byte) {
	for len(dst) >= 2 && len(src) >= 8 {
		v := binary.LittleEndian.Uint64(src)
		dst[0] = math.Float32frombits(uint32(v))
		dst[1] = math.Float32frombits(uint32(v >> 32))
		dst, src = dst[2:], src[8:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// storeFloat32 encodes src into dst as little-endian float32 values, two
// per 8-byte write while both remain.
func storeFloat32(dst []byte, src []float32) {
	for len(src) >= 2 && len(dst) >= 8 {
		v := uint64(math.Float32bits(src[0])) | uint64(math.Float32bits(src[1]))<<32
		binary.LittleEndian.PutUint64(dst, v)
		dst, src = dst[8:], src[2:]
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

func sgemmKernel() *gpu.Kernel {
	return &gpu.Kernel{
		Name: SgemmKernel,
		Run: func(ec gpu.ExecContext) (time.Duration, error) {
			aPtr, bPtr, cPtr, m, err := sgemmParams(&ec.Params)
			if err != nil {
				return 0, err
			}
			size := operandBytes(4, m, m)
			ops := [...]gpu.Operand{
				{Name: "A", Addr: aPtr, Size: size},
				{Name: "B", Addr: bPtr, Size: size},
				{Name: "C", Addr: cPtr, Size: size},
			}
			if err := ec.Resolve(ops[:]); err != nil {
				return 0, err
			}
			aMem, bMem, cMem := ops[0].Mem, ops[1].Mem, ops[2].Mem
			a, aOK := view[float32](aMem)
			b, bOK := view[float32](bMem)
			c, cOK := view[float32](cMem)
			staged := !aOK || !bOK || !cOK || overlaps(cPtr, aPtr, size) || overlaps(cPtr, bPtr, size)
			if staged {
				st := stagingPool.Get().(*staging)
				defer stagingPool.Put(st)
				n := int(m) * int(m)
				buf := scratch(&st.f32, 3*n)
				a, b, c = buf[:n], buf[n:2*n], buf[2*n:]
				loadFloat32(a, aMem)
				loadFloat32(b, bMem)
			}
			if err := blas.Sgemm(int(m), int(m), int(m), a, b, c); err != nil {
				return 0, err
			}
			if staged {
				storeFloat32(cMem, c)
			}
			return calib.KernelTime(calib.MM, int(m)), nil
		},
	}
}

func sgemmParams(r *gpu.ParamReader) (aPtr, bPtr, cPtr, m uint32, err error) {
	read := func() uint32 {
		v, e := r.U32()
		if e != nil && err == nil {
			err = e
		}
		return v
	}
	aPtr, bPtr, cPtr, m = read(), read(), read(), read()
	if err == nil && m == 0 {
		err = fmt.Errorf("kernels: %s with zero dimension", SgemmKernel)
	}
	return aPtr, bPtr, cPtr, m, err
}

func fftKernel() *gpu.Kernel {
	return &gpu.Kernel{
		Name: FFTKernel,
		Run: func(ec gpu.ExecContext) (time.Duration, error) {
			ptr, batch, dir, err := fftParams(&ec.Params)
			if err != nil {
				return 0, err
			}
			mem, err := ec.Mem(ptr, operandBytes(fft.BytesPerTransform, batch, 1))
			if err != nil {
				return 0, err
			}
			// One point is an interleaved little-endian (re, im) float32
			// pair: a complex64 as a little-endian host lays it out.
			signal, inPlace := view[complex64](mem)
			if !inPlace {
				st := stagingPool.Get().(*staging)
				defer stagingPool.Put(st)
				signal = scratch(&st.c64, int(batch)*fft.Points)
				for i := range signal {
					v := binary.LittleEndian.Uint64(mem[8*i:])
					signal[i] = complex(math.Float32frombits(uint32(v)), math.Float32frombits(uint32(v>>32)))
				}
			}
			d := fft.Forward
			if dir == 1 {
				d = fft.Inverse
			}
			if err := fft.TransformBatch(d, signal, fft.Points); err != nil {
				return 0, err
			}
			if !inPlace {
				for i, p := range signal {
					v := uint64(math.Float32bits(real(p))) | uint64(math.Float32bits(imag(p)))<<32
					binary.LittleEndian.PutUint64(mem[8*i:], v)
				}
			}
			return calib.KernelTime(calib.FFT, int(batch)), nil
		},
	}
}

func fftParams(r *gpu.ParamReader) (ptr, batch, dir uint32, err error) {
	read := func() uint32 {
		v, e := r.U32()
		if e != nil && err == nil {
			err = e
		}
		return v
	}
	ptr, batch, dir = read(), read(), read()
	if err == nil {
		if batch == 0 {
			err = fmt.Errorf("kernels: %s with zero batch", FFTKernel)
		} else if dir > 1 {
			err = fmt.Errorf("kernels: %s with direction %d", FFTKernel, dir)
		}
	}
	return ptr, batch, dir, err
}
