// Package blas provides the single-precision dense linear algebra the case
// studies need: a cache-blocked, goroutine-parallel SGEMM standing in for
// the Intel MKL 10.1 the paper runs on its two quad-core Xeon E5520s, and a
// straightforward reference implementation used to validate it.
//
// Matrices are dense row-major float32 slices: element (i, j) of an m×n
// matrix A lives at A[i*n+j].
package blas

import (
	"fmt"
	"runtime"
	"sync"
)

// blockSize is the cache-blocking tile edge. 64×64 float32 tiles (16 KiB)
// fit comfortably in L1 alongside the accumulator row.
const blockSize = 64

// parallelMinWork is the multiply-add count (m·n·k) from which Sgemm fans
// out to one goroutine per CPU; smaller products run inline on the caller.
// Measured with BenchmarkSgemmFanOut on the 2-vCPU benchmark machine
// (go1.24, Xeon 2.1 GHz), inline vs fanned out: 16³ 2.8 vs 4.8 µs, 32³ 20 vs
// 27 µs, 48³ 58 vs 61 µs, 64³ 135 vs 125 µs, 96³ 570 vs 325 µs. Spawning and
// joining the workers never pays below 64³ and always pays from there up.
const parallelMinWork = 64 * 64 * 64

// Sgemm computes C = A·B for row-major float32 matrices, where A is m×k,
// B is k×n and C is m×n. Large products parallelize across row bands using
// all available CPUs, mirroring the paper's 8-core MKL runs; products below
// parallelMinWork run inline. Both produce identical bits: every element of
// C accumulates its k terms in the same order either way.
func Sgemm(m, n, k int, a, b, c []float32) error {
	if err := checkDims(m, n, k, a, b, c); err != nil {
		return err
	}
	if m == 0 || n == 0 {
		return nil
	}
	for i := range c {
		c[i] = 0
	}
	if k == 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	if workers == 1 || m*n*k < parallelMinWork {
		sgemmBand(0, m, n, k, a, b, c)
		return nil
	}
	sgemmParallel(workers, m, n, k, a, b, c)
	return nil
}

// sgemmParallel splits the rows of C into one band per worker.
func sgemmParallel(workers, m, n, k int, a, b, c []float32) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * m / workers
		hi := (w + 1) * m / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sgemmBand(lo, hi, n, k, a, b, c)
		}(lo, hi)
	}
	wg.Wait()
}

// tileWidth is how many adjacent elements of a C row sgemmBand accumulates
// in registers at once: eight independent add chains cover the adder's
// latency, and eight float32 accumulators still fit the register file.
const tileWidth = 8

// sgemmBand computes rows [lo, hi) of C, blocked over k and j so a 64×64
// tile of B stays in cache while every row of the band streams over it.
// Inside a tile each C element is held in a register while its k terms are
// added in ascending k, skipping exact zeros of A — the same c += a·b
// sequence per element as a row-at-a-time saxpy, so the result does not
// depend on the tiling; only the loads and stores of C and every bounds
// check in the inner loop are gone.
func sgemmBand(lo, hi, n, k int, a, b, c []float32) {
	for kk := 0; kk < k; kk += blockSize {
		kmax := kk + blockSize
		if kmax > k {
			kmax = k
		}
		for jj := 0; jj < n; jj += blockSize {
			jmax := jj + blockSize
			if jmax > n {
				jmax = n
			}
			for i := lo; i < hi; i++ {
				arow := a[i*k+kk : i*k+kmax]
				j := jj
				for ; j+tileWidth <= jmax; j += tileWidth {
					ct := c[i*n+j : i*n+j+tileWidth : i*n+j+tileWidth]
					c0, c1, c2, c3, c4, c5, c6, c7 := ct[0], ct[1], ct[2], ct[3], ct[4], ct[5], ct[6], ct[7]
					off := kk*n + j
					for _, aik := range arow {
						if aik != 0 {
							bt := b[off : off+tileWidth : off+tileWidth]
							c0 += aik * bt[0]
							c1 += aik * bt[1]
							c2 += aik * bt[2]
							c3 += aik * bt[3]
							c4 += aik * bt[4]
							c5 += aik * bt[5]
							c6 += aik * bt[6]
							c7 += aik * bt[7]
						}
						off += n
					}
					ct[0], ct[1], ct[2], ct[3], ct[4], ct[5], ct[6], ct[7] = c0, c1, c2, c3, c4, c5, c6, c7
				}
				for ; j < jmax; j++ {
					sum := c[i*n+j]
					off := kk*n + j
					for _, aik := range arow {
						if aik != 0 {
							sum += aik * b[off]
						}
						off += n
					}
					c[i*n+j] = sum
				}
			}
		}
	}
}

// SgemmNaive is the reference triple loop, used by tests as an oracle.
func SgemmNaive(m, n, k int, a, b, c []float32) error {
	if err := checkDims(m, n, k, a, b, c); err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for kx := 0; kx < k; kx++ {
				sum += a[i*k+kx] * b[kx*n+j]
			}
			c[i*n+j] = sum
		}
	}
	return nil
}

func checkDims(m, n, k int, a, b, c []float32) error {
	if m < 0 || n < 0 || k < 0 {
		return fmt.Errorf("blas: negative dimension m=%d n=%d k=%d", m, n, k)
	}
	if len(a) != m*k {
		return fmt.Errorf("blas: A has %d elements, want %d (%dx%d)", len(a), m*k, m, k)
	}
	if len(b) != k*n {
		return fmt.Errorf("blas: B has %d elements, want %d (%dx%d)", len(b), k*n, k, n)
	}
	if len(c) != m*n {
		return fmt.Errorf("blas: C has %d elements, want %d (%dx%d)", len(c), m*n, m, n)
	}
	return nil
}

// Flops returns the floating-point operation count of an m×n×k GEMM,
// 2·m·n·k, used by performance reporting.
func Flops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }
