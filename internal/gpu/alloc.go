package gpu

import (
	"errors"
	"fmt"
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
// It is not safe for concurrent use; Device.mu guards it.
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

// alloc reserves size bytes and returns the block holding them.
func (a *allocator) alloc(size uint32) (*block, error) {
	if size == 0 {
		return nil, ErrZeroSize
	}
	need := roundUp(size)
	if a.used+need > a.total {
		return nil, fmt.Errorf("%w: %d requested, %d of %d in use",
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
			return nil, fmt.Errorf("%w: address space fragmented", ErrOutOfMemory)
		}
		addr = prevEnd
	}
	nb := &block{addr: uint32(addr), size: size, data: make([]byte, size)}
	a.blocks = append(a.blocks, nil)
	copy(a.blocks[insertAt+1:], a.blocks[insertAt:])
	a.blocks[insertAt] = nb
	a.used += need
	return nb, nil
}

// free releases the allocation starting exactly at addr.
func (a *allocator) free(addr uint32) error {
	i := findBlock(a.blocks, addr)
	if i < 0 || a.blocks[i].addr != addr {
		return fmt.Errorf("%w: free(%#x)", ErrInvalidDevPtr, addr)
	}
	a.used -= roundUp(a.blocks[i].size)
	a.blocks = append(a.blocks[:i], a.blocks[i+1:]...)
	return nil
}

// findBlock returns the index of the block containing addr in blocks,
// which are sorted by address and do not overlap, or -1.
func findBlock(blocks []*block, addr uint32) int {
	// A binary search for the first block ending past addr, written out
	// because every operand of every launch comes through here.
	lo, hi := 0, len(blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if uint64(blocks[mid].addr)+uint64(blocks[mid].size) > uint64(addr) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(blocks) && blocks[lo].addr <= addr {
		return lo
	}
	return -1
}

// inUse reports allocated bytes (rounded to granularity).
func (a *allocator) inUse() uint64 { return a.used }

// count reports the number of live allocations.
func (a *allocator) count() int { return len(a.blocks) }
