package blas

// tile is tilePortable's contract computed by the SSE2 micro-kernel. The
// assembly checks nothing: c and a are touched over exactly their lengths,
// and the furthest element of b it reads, (len(a)-1)·ldb+len(c)-1, is
// asserted here.
func tile(c, a, b []float32, ldb int) {
	if len(c) == 0 || len(a) == 0 {
		return
	}
	if ldb < 0 || (len(a)-1)*ldb+len(c) > len(b) {
		panic("blas: tile reads past the end of b")
	}
	tileSSE2(c, a, b, ldb)
}

//go:noescape
func tileSSE2(c, a, b []float32, ldb int)
