//go:build !amd64

package blas

func tile(c, a, b []float32, rows, ldc, lda, ldb int) { tilePortable(c, a, b, rows, ldc, lda, ldb) }
