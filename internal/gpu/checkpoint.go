package gpu

import (
	"fmt"
	"sort"
	"time"

	"rcuda/internal/protocol"
)

// This file gives a context an exportable, restorable state — the device
// half of live session migration. ExportState captures the context's
// allocations (addresses and contents) and its simulated engine timeline as
// the checkpoint's own device entry (protocol.DeviceCheckpoint); RestoreState
// rebuilds them inside a fresh context on another device, preserving every
// device address exactly, because the client still holds pointers into this
// address space. Quota accounting needs no field of its own:
// OwnedBytes/OwnedCount derive from the restored allocations, so the figure
// the destination enforces can never drift from what actually moved.

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

// ExportState captures the context's allocations, sorted by address, and
// its timeline, streams and events sorted by id, so serializing the state is
// deterministic. The caller sets the entry's Device. The state shares no
// storage with the context; a later operation cannot mutate it.
func (c *Context) ExportState() (*protocol.DeviceCheckpoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.check(); err != nil {
		return nil, err
	}
	st := &protocol.DeviceCheckpoint{Timeline: protocol.TimelineCheckpoint{
		EngineDone: [2]uint64{uint64(c.tl.engineDone[0]), uint64(c.tl.engineDone[1])},
		Streams:    sortedMarks(c.tl.streams, protocol.TimelineEntry{ID: DefaultStream, Done: uint64(c.tl.defaultDone)}),
		Events:     sortedMarks(c.tl.events),
		NextStream: c.tl.nextStream,
		NextEvent:  c.tl.nextEvent,
	}}
	for _, b := range c.owned {
		st.Allocs = append(st.Allocs, protocol.AllocCheckpoint{
			Addr: b.addr,
			Size: b.size,
			Data: append([]byte(nil), b.data...),
		})
	}
	return st, nil
}

// sortedMarks lists the marks of m and the extra ones, sorted by id.
func sortedMarks(m map[uint32]time.Duration, extra ...protocol.TimelineEntry) []protocol.TimelineEntry {
	marks := append(make([]protocol.TimelineEntry, 0, len(m)+len(extra)), extra...)
	for id, done := range m {
		marks = append(marks, protocol.TimelineEntry{ID: id, Done: uint64(done)})
	}
	sort.Slice(marks, func(i, j int) bool { return marks[i].ID < marks[j].ID })
	return marks
}

// RestoreState rebuilds an exported state inside this context, which must
// be fresh (no allocations). Every allocation lands at its original device
// address; failure rolls back whatever was placed, leaving the context
// empty again. The entry's Device is the caller's business.
func (c *Context) RestoreState(st *protocol.DeviceCheckpoint) error {
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
	tl.engineDone = [2]time.Duration{time.Duration(st.Timeline.EngineDone[0]), time.Duration(st.Timeline.EngineDone[1])}
	for _, m := range st.Timeline.Streams {
		tl.setStream(m.ID, time.Duration(m.Done))
	}
	for _, m := range st.Timeline.Events {
		tl.setEvent(m.ID, time.Duration(m.Done))
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
