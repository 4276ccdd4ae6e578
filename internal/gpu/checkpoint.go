package gpu

import (
	"fmt"
	"sort"
	"time"
)

// This file gives a context an exportable, restorable state — the device
// half of live session migration. ExportState captures the context's
// allocations (addresses and contents) and its simulated engine timeline;
// RestoreState rebuilds them inside a fresh context on another device,
// preserving every device address exactly, because the client still holds
// pointers into this address space. Quota accounting needs no field of its
// own: OwnedBytes/OwnedCount derive from the restored allocations, so the
// figure the destination enforces can never drift from what actually moved.

// AllocState is one live allocation: its device address, requested size,
// and contents.
type AllocState struct {
	Addr uint32
	Size uint32
	Data []byte
}

// MarkState is one stream's or event's completion instant on the context's
// virtual clock.
type MarkState struct {
	ID   uint32
	Done time.Duration
}

// TimelineState is the simulated engine state of one context: busy-until
// instants for the copy and compute engines, per-stream and per-event
// completion instants, and the id counters (so post-migration creations
// cannot collide with handles the client already holds).
type TimelineState struct {
	EngineDone [2]time.Duration
	Streams    []MarkState
	Events     []MarkState
	NextStream uint32
	NextEvent  uint32
}

// ContextState is a context's full exportable state. Allocs is sorted by
// address and Streams/Events by id, so serializing the state is
// deterministic.
type ContextState struct {
	Allocs   []AllocState
	Timeline TimelineState
}

// allocAt reserves size bytes at exactly addr and returns the block
// holding them, failing if the region is unavailable. It is the
// restore-side counterpart of alloc: a migrated session's pointers must
// land at their original addresses.
func (a *allocator) allocAt(addr, size uint32) (*block, error) {
	if size == 0 {
		return nil, ErrZeroSize
	}
	if addr < nullGuard || uint64(addr)%allocAlign != 0 {
		return nil, fmt.Errorf("%w: allocAt(%#x)", ErrInvalidDevPtr, addr)
	}
	need := roundUp(size)
	if uint64(addr)+need > a.total {
		return nil, fmt.Errorf("%w: allocAt(%#x,+%d) past capacity %d", ErrOutOfMemory, addr, size, a.total)
	}
	if a.used+need > a.total {
		return nil, fmt.Errorf("%w: %d requested, %d of %d in use", ErrOutOfMemory, size, a.used, a.total)
	}
	i := sort.Search(len(a.blocks), func(i int) bool { return a.blocks[i].addr >= addr })
	if i > 0 {
		prev := a.blocks[i-1]
		if uint64(prev.addr)+roundUp(prev.size) > uint64(addr) {
			return nil, fmt.Errorf("%w: allocAt(%#x) overlaps allocation at %#x", ErrInvalidDevPtr, addr, prev.addr)
		}
	}
	if i < len(a.blocks) && uint64(a.blocks[i].addr) < uint64(addr)+need {
		return nil, fmt.Errorf("%w: allocAt(%#x) overlaps allocation at %#x", ErrInvalidDevPtr, addr, a.blocks[i].addr)
	}
	nb := &block{addr: addr, size: size, data: make([]byte, size)}
	a.blocks = append(a.blocks, nil)
	copy(a.blocks[i+1:], a.blocks[i:])
	a.blocks[i] = nb
	a.used += need
	return nb, nil
}

// ExportState captures the context's allocations and timeline. The state
// shares no storage with the context; a later operation cannot mutate it.
func (c *Context) ExportState() (*ContextState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return nil, err
	}
	st := &ContextState{}
	for _, b := range c.owned {
		st.Allocs = append(st.Allocs, AllocState{
			Addr: b.addr,
			Size: b.size,
			Data: append([]byte(nil), b.data...),
		})
	}
	st.Timeline = TimelineState{
		EngineDone: c.tl.engineDone,
		Streams:    sortedMarks(c.tl.streamDone),
		Events:     sortedMarks(c.tl.events),
		NextStream: c.tl.nextStream,
		NextEvent:  c.tl.nextEvent,
	}
	return st, nil
}

func sortedMarks(m map[uint32]time.Duration) []MarkState {
	marks := make([]MarkState, 0, len(m))
	for id, done := range m {
		marks = append(marks, MarkState{ID: id, Done: done})
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i].ID < marks[j].ID })
	return marks
}

// RestoreState rebuilds an exported state inside this context, which must
// be fresh (no allocations). Every allocation lands at its original device
// address; failure rolls back whatever was placed, leaving the context
// empty again.
func (c *Context) RestoreState(st *ContextState) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return err
	}
	if len(c.owned) != 0 {
		return fmt.Errorf("gpu: restore into a context holding %d allocations", len(c.owned))
	}
	c.dev.mu.Lock()
	for i := range st.Allocs {
		al := &st.Allocs[i]
		b, err := c.dev.alloc.allocAt(al.Addr, al.Size)
		if err == nil && len(al.Data) != int(al.Size) {
			err = fmt.Errorf("gpu: restore alloc %#x carries %d bytes, want %d", al.Addr, len(al.Data), al.Size)
			_ = c.dev.alloc.free(al.Addr)
		}
		if err != nil {
			for _, placed := range c.owned {
				_ = c.dev.alloc.free(placed.addr)
			}
			c.owned = nil
			c.dev.mu.Unlock()
			return err
		}
		copy(b.data, al.Data)
		c.own(b)
	}
	c.dev.mu.Unlock()

	tl := newTimeline()
	tl.engineDone = st.Timeline.EngineDone
	for _, m := range st.Timeline.Streams {
		tl.streamDone[m.ID] = m.Done
	}
	for _, m := range st.Timeline.Events {
		tl.events[m.ID] = m.Done
	}
	if st.Timeline.NextStream > tl.nextStream {
		tl.nextStream = st.Timeline.NextStream
	}
	if st.Timeline.NextEvent > tl.nextEvent {
		tl.nextEvent = st.Timeline.NextEvent
	}
	c.tl = tl
	return nil
}
