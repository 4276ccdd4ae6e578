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
// Measured with BenchmarkSgemmFanOut, inline vs fanned out, medians of five
// runs on a 2-vCPU Xeon (Sapphire Rapids, 2.0 GHz, go1.24) with the
// micro-kernel taking a band of rows: 16³ 0.85 vs 3.1 µs, 32³ 6.1 vs 10 µs,
// 48³ 20 vs 24 µs, 64³ 48 vs 48 µs, 96³ 167 vs 119 µs, 128³ 356 vs 250 µs.
// One micro-kernel call per row crossed over at the same place on the
// same machine (64³ 52 vs 51 µs, 96³ 167 vs 119 µs): the band saves call
// overhead on small products, not at the sizes where spawning and joining
// the workers is weighed. Fan-out breaks even at 64³ there and pays by
// 96³; the constant, placed at the break-even of the machine it was first
// measured on, stays at 96³ because the band did not move the crossover.
const parallelMinWork = 96 * 96 * 96

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
	clear(c)
	if k == 0 {
		return nil
	}
	// The size test comes first: runtime.GOMAXPROCS takes the scheduler's
	// lock, which a small product has no reason to.
	workers := 1
	if m*n*k >= parallelMinWork {
		workers = min(runtime.GOMAXPROCS(0), m)
	}
	if workers == 1 {
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

// sgemmBand computes rows [lo, hi) of C, blocked over k and j so a 64×64
// tile of B stays in cache while every row of the band streams over it.
// Each (j-block, k-block) is one tile call over all the band's rows; the
// result does not depend on the blocking, because every element of C
// receives its k terms in ascending k whichever tile implementation runs
// (see tilePortable).
func sgemmBand(lo, hi, n, k int, a, b, c []float32) {
	for kk := 0; kk < k; kk += blockSize {
		kmax := min(kk+blockSize, k)
		for jj := 0; jj < n; jj += blockSize {
			jmax := min(jj+blockSize, n)
			tile(c[lo*n+jj:lo*n+jmax], a[lo*k+kk:lo*k+kmax], b[kk*n+jj:], hi-lo, n, k, n)
		}
	}
}

// tileWidth is how many adjacent elements of a C row tilePortable
// accumulates in registers at once: eight independent add chains cover the
// adder's latency, and eight float32 accumulators still fit the register
// file.
const tileWidth = 8

// tilePortable adds one k-block's terms to a band of rows strips of C. c
// and a are the first row's strips — len(c) columns, len(a) terms — and
// row r's lie ldc and lda elements further on per row, inside their
// capacities: c[r·ldc+j] += a[r·lda+kx]·b[kx·ldb+j] for every j < len(c),
// kx ascending below len(a), skipping exact zeros of a (a NaN is not a
// zero). Each element is held in a register while its terms are added —
// the same c += a·b sequence, with a rounding after the multiply and one
// after the add, as a row-at-a-time saxpy. It is the implementation on
// every GOARCH without a micro-kernel and the oracle the amd64
// micro-kernel is tested against, bit for bit.
func tilePortable(c, a, b []float32, rows, ldc, lda, ldb int) {
	for r := 0; r < rows; r++ {
		tileRow(c[r*ldc:r*ldc+len(c)], a[r*lda:r*lda+len(a)], b, ldb)
	}
}

// tileRow is tilePortable for one row.
func tileRow(c, a, b []float32, ldb int) {
	j := 0
	for ; j+tileWidth <= len(c); j += tileWidth {
		ct := c[j : j+tileWidth : j+tileWidth]
		c0, c1, c2, c3, c4, c5, c6, c7 := ct[0], ct[1], ct[2], ct[3], ct[4], ct[5], ct[6], ct[7]
		off := j
		for _, aik := range a {
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
			off += ldb
		}
		ct[0], ct[1], ct[2], ct[3], ct[4], ct[5], ct[6], ct[7] = c0, c1, c2, c3, c4, c5, c6, c7
	}
	for ; j < len(c); j++ {
		sum := c[j]
		off := j
		for _, aik := range a {
			if aik != 0 {
				sum += aik * b[off]
			}
			off += ldb
		}
		c[j] = sum
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
