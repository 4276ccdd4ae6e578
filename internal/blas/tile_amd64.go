package blas

// tile is tilePortable's contract computed by the SSE2 micro-kernel. The
// assembly checks nothing: every element it touches is asserted here, once
// per band — the last row's strip of c and of a inside their capacities,
// and the furthest element of b, (len(a)-1)·ldb+len(c)-1, inside b.
func tile(c, a, b []float32, rows, ldc, lda, ldb int) {
	if rows <= 0 || len(c) == 0 || len(a) == 0 {
		return
	}
	if !reaches(rows-1, ldc, len(c), cap(c)) || !reaches(rows-1, lda, len(a), cap(a)) ||
		!reaches(len(a)-1, ldb, len(c), len(b)) {
		panic("blas: tile reaches past the end of an operand")
	}
	tileSSE2(c, a, b, rows, ldc, lda, ldb)
}

// reaches reports whether a run of w elements, n strides of stride past
// the first, still ends within limit — n·stride + w <= limit, computed
// without overflow — for a non-negative stride.
func reaches(n, stride, w, limit int) bool {
	return stride >= 0 && w <= limit && (n == 0 || stride <= (limit-w)/n)
}

//go:noescape
func tileSSE2(c, a, b []float32, rows, ldc, lda, ldb int)
