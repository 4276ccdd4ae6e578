package kernels

import (
	"encoding/binary"
	"unsafe"
)

// view returns the device-memory range mem as a []T over the same bytes, so
// a kernel can compute on it in place, or false when it must stage instead:
// on a big-endian host (device memory is little-endian bytes) and when mem
// does not start on an element boundary (device pointers are arbitrary byte
// addresses off the wire). This is the repository's only use of unsafe. The
// view covers len(mem)/sizeof(T) whole elements of the one allocation mem
// already lies in and T holds no pointers, which is all checkptr (on under
// -race) asks of the conversion; alignment is checked here because the
// compiler may assume it of a *T.
func view[T float32 | complex64](mem []byte) ([]T, bool) {
	var elem T
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 || len(mem) == 0 {
		return nil, false
	}
	p := unsafe.Pointer(unsafe.SliceData(mem))
	if uintptr(p)%unsafe.Alignof(elem) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), len(mem)/int(unsafe.Sizeof(elem))), true
}

// overlaps reports whether the device ranges [p, p+size) and [q, q+size)
// share a byte.
func overlaps(p, q uint32, size uint64) bool {
	if p < q {
		p, q = q, p
	}
	return uint64(p-q) < size
}
