//go:build !amd64

package blas

func tile(c, a, b []float32, ldb int) { tilePortable(c, a, b, ldb) }
