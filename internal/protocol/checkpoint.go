package protocol

import "fmt"

// The Checkpoint is the payload a migration streams: everything the
// destination daemon needs to rebuild a parked session bit-for-bit — the
// session identity, the GPU module it initialized with, per-device
// allocations with their contents, the simulated stream/event timelines,
// and the batch seq-dedup window (so a client retry after the move still
// answers from memory instead of executing twice). Quota accounting is
// deliberately absent: the server derives it live from the restored
// allocations, so it can never drift from them.
//
// The checkpoint travels inside Chunk frames of stream OpMigrateChunk,
// landed straight in the destination's checkpoint buffer, and is not itself
// a request; it has its own decoder (DecodeCheckpoint) and a version header
// so the format can evolve without ambiguity.

// CheckpointVersion is the serialization version this package writes.
// Version 2 added the scheduling class/weight pair after CurDevice. The
// decoder accepts exactly this version: migration streams run between
// daemons of one build, and a mixed-version pair must fail the transfer
// loudly (the source keeps the session) rather than guess at fields.
const CheckpointVersion = 2

// checkpointMaxList bounds every list count in the decoder before any
// allocation is sized from it. Each list entry occupies at least 4 wire
// bytes, so with the payload capped at MaxFrameSize this can never reject
// a legitimate checkpoint.
const checkpointMaxList = MaxFrameSize / 4

// Checkpoint is a serialized durable session.
type Checkpoint struct {
	// Session is the identity the client reattaches with; it is preserved
	// across the move (the reattach handshake cannot renumber).
	Session uint64
	// Module names the registered GPU module the session initialized with.
	Module string
	// CurDevice is the session's current cudaSetDevice selection.
	CurDevice uint32
	// SchedClass and SchedWeight are the session's scheduling parameters
	// (SchedClass codes; see sched.go), preserved across the move so a
	// migrated realtime session stays realtime on the destination.
	SchedClass  uint32
	SchedWeight uint32
	// LastBatchSeq and LastBatchCodes are the batch dedup window: the last
	// executed batch sequence and its per-sub-op result codes. A nil
	// LastBatchCodes means no batch has executed yet.
	LastBatchSeq   uint64
	LastBatchCodes []uint32
	// Devices holds one entry per device context the session created.
	Devices []DeviceCheckpoint
}

// DeviceCheckpoint is one device context's state.
type DeviceCheckpoint struct {
	// Device is the device ordinal.
	Device uint32
	// Allocs lists the live allocations, addresses preserved exactly (the
	// client still holds device pointers into this address space).
	Allocs []AllocCheckpoint
	// Timeline is the simulated stream/event engine state.
	Timeline TimelineCheckpoint
}

// AllocCheckpoint is one live device allocation with its contents.
type AllocCheckpoint struct {
	// Addr and Size are the allocation's device address and requested size.
	Addr uint32
	Size uint32
	// Data is the allocation's contents, exactly Size bytes.
	Data []byte
}

// TimelineCheckpoint captures a device context's simulated engine state:
// when each copy/exec engine drains, per-stream and per-event completion
// instants (nanoseconds on the context's virtual clock), and the id
// counters, so streams and events created after the move cannot collide
// with ones the client already holds.
type TimelineCheckpoint struct {
	EngineDone [2]uint64
	Streams    []TimelineEntry
	Events     []TimelineEntry
	NextStream uint32
	NextEvent  uint32
}

// TimelineEntry is one stream's or event's completion instant.
type TimelineEntry struct {
	ID   uint32
	Done uint64
}

// Encode implements Message.
func (c *Checkpoint) Encode(dst []byte) []byte {
	dst = putU32(dst, CheckpointVersion)
	dst = putU64(dst, c.Session)
	dst = putU32(dst, uint32(len(c.Module)))
	dst = append(dst, c.Module...)
	dst = putU32(dst, c.CurDevice)
	dst = putU32(dst, c.SchedClass)
	dst = putU32(dst, c.SchedWeight)
	dst = putU64(dst, c.LastBatchSeq)
	if c.LastBatchCodes == nil {
		dst = putU32(dst, 0)
	} else {
		dst = putU32(dst, 1)
		dst = putU32(dst, uint32(len(c.LastBatchCodes)))
		for _, code := range c.LastBatchCodes {
			dst = putU32(dst, code)
		}
	}
	dst = putU32(dst, uint32(len(c.Devices)))
	for i := range c.Devices {
		dst = encodeDeviceCheckpoint(dst, &c.Devices[i])
	}
	return dst
}

// WireSize implements Message.
func (c *Checkpoint) WireSize() int {
	n := 4 + 8 + 4 + len(c.Module) + 4 + 4 + 4 + 8 + 4
	if c.LastBatchCodes != nil {
		n += 4 + 4*len(c.LastBatchCodes)
	}
	n += 4
	for i := range c.Devices {
		n += deviceCheckpointWireSize(&c.Devices[i])
	}
	return n
}

func encodeDeviceCheckpoint(dst []byte, d *DeviceCheckpoint) []byte {
	dst = putU32(dst, d.Device)
	dst = putU32(dst, uint32(len(d.Allocs)))
	for i := range d.Allocs {
		a := &d.Allocs[i]
		dst = putU32(dst, a.Addr)
		dst = putU32(dst, a.Size)
		dst = putU32(dst, uint32(len(a.Data)))
		dst = append(dst, a.Data...)
	}
	dst = putU64(dst, d.Timeline.EngineDone[0])
	dst = putU64(dst, d.Timeline.EngineDone[1])
	dst = putU32(dst, d.Timeline.NextStream)
	dst = putU32(dst, d.Timeline.NextEvent)
	dst = encodeTimelineEntries(dst, d.Timeline.Streams)
	return encodeTimelineEntries(dst, d.Timeline.Events)
}

func deviceCheckpointWireSize(d *DeviceCheckpoint) int {
	n := 4 + 4
	for i := range d.Allocs {
		n += 12 + len(d.Allocs[i].Data)
	}
	n += 8 + 8 + 4 + 4
	n += 4 + 12*len(d.Timeline.Streams)
	n += 4 + 12*len(d.Timeline.Events)
	return n
}

func encodeTimelineEntries(dst []byte, entries []TimelineEntry) []byte {
	dst = putU32(dst, uint32(len(entries)))
	for _, e := range entries {
		dst = putU32(dst, e.ID)
		dst = putU64(dst, e.Done)
	}
	return dst
}

// checkpointReader walks a checkpoint payload with bounds checking; any
// read past the end latches an error instead of panicking.
type checkpointReader struct {
	b   []byte
	off int
	err error
}

func (r *checkpointReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.err = ErrShortMessage
		return 0
	}
	v := getU32(r.b, r.off)
	r.off += 4
	return v
}

func (r *checkpointReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.err = ErrShortMessage
		return 0
	}
	v := getU64(r.b, r.off)
	r.off += 8
	return v
}

func (r *checkpointReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.err = ErrShortMessage
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// count reads a list length and rejects absurd values before the caller
// sizes an allocation from it.
func (r *checkpointReader) count(what string) int {
	n := r.u32()
	if r.err == nil && n > checkpointMaxList {
		r.err = fmt.Errorf("protocol: checkpoint %s count %d exceeds limit", what, n)
	}
	return int(n)
}

// DecodeCheckpoint parses a reassembled checkpoint payload. Alloc data is
// copied out of b, so the caller may reuse the buffer after decoding.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	r := &checkpointReader{b: b}
	if v := r.u32(); r.err == nil && v != CheckpointVersion {
		return nil, fmt.Errorf("protocol: checkpoint version %d, want %d", v, CheckpointVersion)
	}
	c := &Checkpoint{Session: r.u64()}
	c.Module = string(r.bytes(r.count("module name")))
	c.CurDevice = r.u32()
	c.SchedClass = r.u32()
	c.SchedWeight = r.u32()
	if r.err == nil && c.SchedClass > maxSchedClass {
		return nil, fmt.Errorf("%w: checkpoint class %d", ErrBadSchedClass, c.SchedClass)
	}
	if r.err == nil && c.SchedWeight > MaxSchedWeight {
		return nil, fmt.Errorf("%w: checkpoint weight %d", ErrBadSchedWeight, c.SchedWeight)
	}
	c.LastBatchSeq = r.u64()
	switch flag := r.u32(); {
	case r.err != nil:
	case flag == 1:
		n := r.count("batch code")
		if r.err == nil {
			c.LastBatchCodes = make([]uint32, n)
			for i := range c.LastBatchCodes {
				c.LastBatchCodes[i] = r.u32()
			}
		}
	case flag != 0:
		return nil, fmt.Errorf("protocol: checkpoint batch-window flag %d", flag)
	}
	nDev := r.count("device")
	for i := 0; i < nDev && r.err == nil; i++ {
		c.Devices = append(c.Devices, decodeDeviceCheckpoint(r))
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("protocol: checkpoint has %d trailing bytes", len(b)-r.off)
	}
	return c, nil
}

func decodeDeviceCheckpoint(r *checkpointReader) DeviceCheckpoint {
	d := DeviceCheckpoint{Device: r.u32()}
	nAlloc := r.count("alloc")
	for i := 0; i < nAlloc && r.err == nil; i++ {
		a := AllocCheckpoint{Addr: r.u32(), Size: r.u32()}
		data := r.bytes(r.count("alloc data"))
		if r.err == nil {
			a.Data = append([]byte(nil), data...)
			d.Allocs = append(d.Allocs, a)
		}
	}
	d.Timeline.EngineDone[0] = r.u64()
	d.Timeline.EngineDone[1] = r.u64()
	d.Timeline.NextStream = r.u32()
	d.Timeline.NextEvent = r.u32()
	d.Timeline.Streams = decodeTimelineEntries(r)
	d.Timeline.Events = decodeTimelineEntries(r)
	return d
}

func decodeTimelineEntries(r *checkpointReader) []TimelineEntry {
	n := r.count("timeline entry")
	var entries []TimelineEntry
	for i := 0; i < n && r.err == nil; i++ {
		entries = append(entries, TimelineEntry{ID: r.u32(), Done: r.u64()})
	}
	return entries
}
