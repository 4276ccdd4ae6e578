// Package fft implements the batched one-dimensional complex FFT of the
// paper's second case study: many independent 512-point single-precision
// transforms computed in parallel, standing in for FFTW 3.2.2 on the CPU
// and Volkov's FFT kernel on the GPU.
//
// Transforms are radix-2 decimation-in-time with precomputed twiddle
// tables; batches are parallelized across goroutines. A naive O(n²) DFT
// serves as the correctness oracle in tests.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
)

// Points is the transform length of the paper's case study: "we compute 512
// points on each FFT operation", each point a single-precision complex
// (8 bytes), so a batch of n transforms moves 4096·n bytes per direction.
const Points = 512

// BytesPerTransform is the wire size of one 512-point transform.
const BytesPerTransform = Points * 8

// Direction selects forward or inverse transforms.
type Direction int

// Transform directions.
const (
	Forward Direction = iota
	Inverse
)

// plan caches the bit-reversal permutation and twiddle factors for a size.
type plan struct {
	n       int
	rev     []int
	twiddle []complex64 // twiddle[k] = exp(-2πik/n)
}

var plans sync.Map // int -> *plan

func planFor(n int) (*plan, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: size %d is not a positive power of two", n)
	}
	if p, ok := plans.Load(n); ok {
		return p.(*plan), nil
	}
	p := &plan{n: n, rev: make([]int, n), twiddle: make([]complex64, n/2)}
	shift := 64 - bits.TrailingZeros64(uint64(n))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	for k := range p.twiddle {
		angle := -2 * math.Pi * float64(k) / float64(n)
		s, c := math.Sincos(angle)
		p.twiddle[k] = complex(float32(c), float32(s))
	}
	actual, _ := plans.LoadOrStore(n, p)
	return actual.(*plan), nil
}

// Transform computes an in-place FFT of x, whose length must be a power of
// two. The inverse transform is normalized by 1/n so that
// Transform(Inverse, Transform(Forward, x)) ≈ x.
func Transform(dir Direction, x []complex64) error {
	p, err := planFor(len(x))
	if err != nil {
		return err
	}
	p.run(dir, x)
	return nil
}

func (p *plan) run(dir Direction, x []complex64) {
	n := p.n
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for span := 1; span < n; span <<= 1 {
		step := n / (2 * span)
		for start := 0; start < n; start += 2 * span {
			for k := 0; k < span; k++ {
				w := p.twiddle[k*step]
				if dir == Inverse {
					w = complex(real(w), -imag(w))
				}
				a := x[start+k]
				b := x[start+k+span] * w
				x[start+k] = a + b
				x[start+k+span] = a - b
			}
		}
	}
	if dir == Inverse {
		inv := complex(float32(1)/float32(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// parallelMinBatch is the batch size, in 512-point transforms (other sizes
// scale by points: batch·n ≥ parallelMinBatch·Points), from which
// TransformBatch fans out to one goroutine per CPU; smaller batches run
// inline on the caller. Measured with BenchmarkBatchFanOut on the 2-vCPU
// benchmark machine (go1.24, Xeon 2.1 GHz), inline vs fanned out: batch 1
// 14.6 vs 18.9 µs, 2 29 vs 38 µs, 4 58 vs 59 µs, 8 115 vs 92 µs, 16 150 vs
// 138 µs. Fan-out loses below four transforms and wins from eight.
const parallelMinBatch = 8

// TransformBatch computes batch independent in-place n-point transforms over
// a contiguous buffer of batch·n complex points — the shape of the paper's
// "different numbers of parallel FFT operations". Large batches parallelize
// across CPUs; batches below parallelMinBatch run inline. Transforms are
// independent, so the split changes no result bit.
func TransformBatch(dir Direction, x []complex64, n int) error {
	p, err := planFor(n)
	if err != nil {
		return err
	}
	if len(x)%n != 0 {
		return fmt.Errorf("fft: buffer of %d points is not a multiple of transform size %d", len(x), n)
	}
	batch := len(x) / n
	workers := runtime.GOMAXPROCS(0)
	if workers > batch {
		workers = batch
	}
	if workers <= 1 || len(x) < parallelMinBatch*Points {
		p.runRange(dir, x, 0, batch)
		return nil
	}
	p.runParallel(dir, x, workers)
	return nil
}

// runRange transforms the batch entries [lo, hi) of x.
func (p *plan) runRange(dir Direction, x []complex64, lo, hi int) {
	for i := lo; i < hi; i++ {
		p.run(dir, x[i*p.n:(i+1)*p.n])
	}
}

// runParallel splits the batch into one contiguous range per worker.
func (p *plan) runParallel(dir Direction, x []complex64, workers int) {
	batch := len(x) / p.n
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * batch / workers
		hi := (w + 1) * batch / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			p.runRange(dir, x, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
