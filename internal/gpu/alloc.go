package gpu

import (
	"errors"
	"fmt"
	"sort"
)

// Allocation errors.
var (
	ErrOutOfMemory   = errors.New("gpu: out of device memory")
	ErrInvalidDevPtr = errors.New("gpu: invalid device pointer")
	ErrZeroSize      = errors.New("gpu: zero-size allocation")
)

// allocAlign is the allocation granularity. The CUDA runtime guarantees at
// least 256-byte alignment for cudaMalloc.
const allocAlign = 256

// nullGuard keeps device address 0 unallocated so a zero pointer is always
// invalid, as on real hardware.
const nullGuard = allocAlign

// block is one allocated region of the device address space.
type block struct {
	addr uint32
	size uint32 // requested size
	data []byte // backing store
}

// allocator is a first-fit allocator over a 32-bit device address space.
// It is not safe for concurrent use; the Device serializes access.
type allocator struct {
	total  uint64 // device memory capacity in bytes
	used   uint64
	blocks []*block // sorted by addr
}

func newAllocator(total uint64) *allocator {
	return &allocator{total: total}
}

// roundUp rounds n up to the allocation granularity.
func roundUp(n uint32) uint64 {
	return (uint64(n) + allocAlign - 1) &^ (allocAlign - 1)
}

// AllocCharge returns the device bytes a request of the given size actually
// occupies once rounded to the allocation granularity. Accounting layers
// (per-session quotas in the rCUDA server) charge this amount so their
// bookkeeping matches the allocator's inUse figure exactly.
func AllocCharge(size uint32) uint64 { return roundUp(size) }

// alloc reserves size bytes and returns the device address of the region.
func (a *allocator) alloc(size uint32) (uint32, error) {
	if size == 0 {
		return 0, ErrZeroSize
	}
	need := roundUp(size)
	if a.used+need > a.total {
		return 0, fmt.Errorf("%w: %d requested, %d of %d in use",
			ErrOutOfMemory, size, a.used, a.total)
	}
	// First fit: scan the gaps between existing blocks.
	prevEnd := uint64(nullGuard)
	insertAt := len(a.blocks)
	var addr uint64
	found := false
	for i, b := range a.blocks {
		if uint64(b.addr)-prevEnd >= need {
			addr, insertAt, found = prevEnd, i, true
			break
		}
		prevEnd = uint64(b.addr) + roundUp(b.size)
	}
	if !found {
		if a.total-prevEnd < need {
			return 0, fmt.Errorf("%w: address space fragmented", ErrOutOfMemory)
		}
		addr = prevEnd
	}
	nb := &block{addr: uint32(addr), size: size, data: make([]byte, size)}
	a.blocks = append(a.blocks, nil)
	copy(a.blocks[insertAt+1:], a.blocks[insertAt:])
	a.blocks[insertAt] = nb
	a.used += need
	return nb.addr, nil
}

// free releases the allocation starting exactly at addr.
func (a *allocator) free(addr uint32) error {
	i := a.find(addr)
	if i < 0 || a.blocks[i].addr != addr {
		return fmt.Errorf("%w: free(%#x)", ErrInvalidDevPtr, addr)
	}
	a.used -= roundUp(a.blocks[i].size)
	a.blocks = append(a.blocks[:i], a.blocks[i+1:]...)
	return nil
}

// find returns the index of the block containing addr, or -1.
func (a *allocator) find(addr uint32) int {
	i := sort.Search(len(a.blocks), func(i int) bool {
		return uint64(a.blocks[i].addr)+uint64(a.blocks[i].size) > uint64(addr)
	})
	if i < len(a.blocks) && a.blocks[i].addr <= addr {
		return i
	}
	return -1
}

// region resolves [addr, addr+size) to the slice of backing store it maps
// to, and the address of the allocation holding it. The range must lie
// within a single allocation, as in CUDA, where arithmetic past an
// allocation is undefined.
func (a *allocator) region(addr, size uint32) (base uint32, region []byte, err error) {
	i := a.find(addr)
	if i < 0 {
		return 0, nil, fmt.Errorf("%w: %#x", ErrInvalidDevPtr, addr)
	}
	b := a.blocks[i]
	off := addr - b.addr
	if uint64(off)+uint64(size) > uint64(b.size) {
		return 0, nil, fmt.Errorf("%w: [%#x,+%d) overruns allocation of %d bytes at %#x",
			ErrInvalidDevPtr, addr, size, b.size, b.addr)
	}
	return b.addr, b.data[off : uint64(off)+uint64(size)], nil
}

// inUse reports allocated bytes (rounded to granularity).
func (a *allocator) inUse() uint64 { return a.used }

// count reports the number of live allocations.
func (a *allocator) count() int { return len(a.blocks) }
