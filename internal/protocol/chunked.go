package protocol

import "fmt"

// This file defines the pipelined chunked-memcpy extension. The paper's
// data path moves every cudaMemcpy payload in one monolithic frame and
// strictly serializes the network and PCIe stages; it explicitly leaves
// overlapping them as future work. The chunked protocol splits a bulk
// transfer into fixed-size chunks so the server can push chunk k across the
// PCIe link while chunk k+1 is still on the wire (and symmetrically for
// device-to-host reads), making the modeled transfer time approach
// max(network, PCIe) instead of their sum.
//
// Flow, host to device:
//
//	client                          server
//	  MemcpyStreamBegin  ──────▶    validate region, open stream
//	             ◀──────  result code (abort here on error)
//	  MemcpyStreamChunk 0 ─────▶    PCIe push booked at arrival instant
//	  MemcpyStreamChunk 1 ─────▶    ... overlapped with the next chunk's
//	  ...                           network transfer ...
//	  MemcpyStreamEnd    ──────▶    drain the stream
//	             ◀──────  result code
//
// Device to host mirrors it: after the Begin acknowledgement the server
// streams the chunks and closes with the End status, which follows the last
// chunk. Both acknowledgements are a bare result code (CodeResponse); a
// nonzero Begin code means no chunks follow in either direction. Chunks are
// never individually acknowledged — that is what buys the overlap.
//
// The classic single-frame messages remain the default; this path is
// opt-in above a client-side size threshold, so the Table I byte
// accounting and the default wire format are unchanged.

// DefaultChunkSize is the default payload size of one stream chunk. One
// MiB is large enough to amortize the 12-byte chunk header to noise and
// small enough that the first PCIe push starts early in the transfer.
const DefaultChunkSize = 1 << 20

// --- Begin -------------------------------------------------------------------

// MemcpyStreamBeginRequest opens a chunked transfer: id (4) + device
// pointer (4) + total size (4) + kind (4) + chunk size (4) = 20 bytes.
// Ptr is the destination for host-to-device transfers and the source for
// device-to-host ones.
type MemcpyStreamBeginRequest struct {
	Ptr       uint32
	Total     uint32
	Kind      uint32
	ChunkSize uint32
}

// Encode implements Message.
func (m *MemcpyStreamBeginRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMemcpyStreamBegin))
	dst = putU32(dst, m.Ptr)
	dst = putU32(dst, m.Total)
	dst = putU32(dst, m.Kind)
	return putU32(dst, m.ChunkSize)
}

// WireSize implements Message.
func (m *MemcpyStreamBeginRequest) WireSize() int { return 20 }

// Op implements Request.
func (m *MemcpyStreamBeginRequest) Op() Op { return OpMemcpyStreamBegin }

// CopyBytes is the size of the whole transfer, for the scheduler's cost
// estimate.
func (m *MemcpyStreamBeginRequest) CopyBytes() int { return int(m.Total) }

// --- Chunk -------------------------------------------------------------------

// MemcpyStreamChunk carries one payload slice: id (4) + sequence (4) +
// size (4) + data (x) = x+12 bytes. Chunks flow client→server on
// host-to-device transfers and server→client on device-to-host ones, and
// are never individually acknowledged.
type MemcpyStreamChunk struct {
	Seq  uint32
	Data []byte
}

// Encode implements Message.
func (m *MemcpyStreamChunk) Encode(dst []byte) []byte {
	dst = m.SegmentHead(dst)
	return append(dst, m.Data...)
}

// WireSize implements Message.
func (m *MemcpyStreamChunk) WireSize() int { return 12 + len(m.Data) }

// Op implements Request.
func (m *MemcpyStreamChunk) Op() Op { return OpMemcpyStreamChunk }

// SegmentHead implements Segmented.
func (m *MemcpyStreamChunk) SegmentHead(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMemcpyStreamChunk))
	dst = putU32(dst, m.Seq)
	return putU32(dst, uint32(len(m.Data)))
}

// SegmentBulk implements Segmented.
func (m *MemcpyStreamChunk) SegmentBulk() []byte { return m.Data }

// SegmentTail implements Segmented.
func (m *MemcpyStreamChunk) SegmentTail(dst []byte) []byte { return dst }

// DecodeMemcpyStreamChunk parses a stream chunk. Data aliases b — the
// caller owns b until the chunk has been consumed.
func DecodeMemcpyStreamChunk(b []byte) (*MemcpyStreamChunk, error) {
	return decodeStreamChunk(&fresh, b)
}

func decodeStreamChunk(d *Decoder, b []byte) (*MemcpyStreamChunk, error) {
	if len(b) < 12 {
		return nil, ErrShortMessage
	}
	if op := Op(getU32(b, 0)); op != OpMemcpyStreamChunk {
		return nil, fmt.Errorf("%w: %d, want stream chunk", ErrBadOp, uint32(op))
	}
	size := int(getU32(b, 8))
	if len(b) != 12+size {
		return nil, fmt.Errorf("protocol: stream chunk size %d does not match payload %d", size, len(b)-12)
	}
	return keep(d, &d.streamChunk, MemcpyStreamChunk{Seq: getU32(b, 4), Data: b[12:]}), nil
}

// --- End ---------------------------------------------------------------------

// MemcpyStreamEndRequest closes a host-to-device stream and asks for the
// final status: id (4) + chunk count (4) = 8 bytes.
type MemcpyStreamEndRequest struct {
	Chunks uint32
}

// Encode implements Message.
func (m *MemcpyStreamEndRequest) Encode(dst []byte) []byte {
	return putU32(putU32(dst, uint32(OpMemcpyStreamEnd)), m.Chunks)
}

// WireSize implements Message.
func (m *MemcpyStreamEndRequest) WireSize() int { return 8 }

// Op implements Request.
func (m *MemcpyStreamEndRequest) Op() Op { return OpMemcpyStreamEnd }

// The decoders of the chunked-transfer rows of the op table (ops.go).

func decodeMemcpyStreamBegin(d *Decoder, b []byte) (Request, error) {
	m := MemcpyStreamBeginRequest{
		Ptr:       getU32(b, 4),
		Total:     getU32(b, 8),
		Kind:      getU32(b, 12),
		ChunkSize: getU32(b, 16),
	}
	if m.Kind != KindHostToDevice && m.Kind != KindDeviceToHost {
		return nil, fmt.Errorf("protocol: stream begin with kind %d", m.Kind)
	}
	// Reject corrupt totals before anything downstream sizes a buffer
	// from them.
	if m.Total > MaxFrameSize {
		return nil, fmt.Errorf("protocol: stream total %d exceeds limit %d", m.Total, MaxFrameSize)
	}
	if m.ChunkSize == 0 || m.ChunkSize > MaxFrameSize {
		return nil, fmt.Errorf("protocol: stream chunk size %d out of range", m.ChunkSize)
	}
	return keep(d, &d.streamBegin, m), nil
}

func decodeMemcpyStreamChunk(d *Decoder, b []byte) (Request, error) { return decodeStreamChunk(d, b) }

func decodeMemcpyStreamEnd(d *Decoder, b []byte) (Request, error) {
	return keep(d, &d.streamEnd, MemcpyStreamEndRequest{Chunks: getU32(b, 4)}), nil
}

// --- Reassembly --------------------------------------------------------------

// chunkHeadSize is the fixed part of a MemcpyStreamChunk that precedes its
// data.
const chunkHeadSize = 12

// peekChunk reads the head of a frame of frameLen bytes whose leading bytes
// are peek. ok reports a well-formed stream chunk whose declared size
// accounts for exactly the rest of the frame.
func peekChunk(frameLen int, peek []byte) (seq uint32, size int, ok bool) {
	if len(peek) < chunkHeadSize || Op(getU32(peek, 0)) != OpMemcpyStreamChunk {
		return 0, 0, false
	}
	size = int(getU32(peek, 8))
	return getU32(peek, 4), size, frameLen == chunkHeadSize+size
}

// ChunkAssembler validates the chunk sequence of one transfer and, when
// given the transfer's destination — the application's buffer on the
// client, the device region on the server — puts every chunk in place
// there. A transport that lands payloads (the assembler is its Lander)
// reads a chunk's bytes straight into their slot; a chunk received whole is
// copied in by Add. A nil destination validates only.
type ChunkAssembler struct {
	dst       []byte
	total     int
	chunkSize int
	next      uint32
	off       int
	// failed is the first chunk rejection: a transfer that has gone wrong
	// takes no further bytes, landed or copied.
	failed error
}

// NewChunkAssembler prepares reassembly of a transfer of total bytes in
// chunkSize-byte chunks. dst must be nil or exactly total bytes long.
func NewChunkAssembler(total, chunkSize uint32, dst []byte) (*ChunkAssembler, error) {
	if total > MaxFrameSize {
		return nil, fmt.Errorf("protocol: stream total %d exceeds limit %d", total, MaxFrameSize)
	}
	if chunkSize == 0 {
		return nil, fmt.Errorf("protocol: zero stream chunk size")
	}
	if dst != nil && len(dst) != int(total) {
		return nil, fmt.Errorf("protocol: assembler buffer %d bytes, want %d", len(dst), total)
	}
	return &ChunkAssembler{dst: dst, total: int(total), chunkSize: int(chunkSize)}, nil
}

// expect checks that a chunk numbered seq carrying size bytes is the one
// the transfer needs next: every chunk must be exactly chunkSize bytes
// except the final one, which carries the remainder.
func (a *ChunkAssembler) expect(seq uint32, size int) error {
	if a.failed != nil {
		return a.failed
	}
	if seq != a.next {
		return fmt.Errorf("protocol: stream chunk %d out of order, want %d", seq, a.next)
	}
	want := a.total - a.off
	if want > a.chunkSize {
		want = a.chunkSize
	}
	if want <= 0 {
		return fmt.Errorf("protocol: stream chunk %d past declared total %d", seq, a.total)
	}
	if size != want {
		return fmt.Errorf("protocol: stream chunk %d carries %d bytes, want %d", seq, size, want)
	}
	return nil
}

// advance accounts for the expected chunk of size bytes having been put in
// place, returning the byte offset it belongs at.
func (a *ChunkAssembler) advance(size int) (off int) {
	off = a.off
	a.off += size
	a.next++
	return off
}

// Add validates the next chunk and copies it into place when the assembler
// owns a destination. It returns the byte offset the chunk belongs at.
func (a *ChunkAssembler) Add(c *MemcpyStreamChunk) (off int, err error) {
	if err := a.expect(c.Seq, len(c.Data)); err != nil {
		a.failed = err
		return 0, err
	}
	if a.dst != nil {
		copy(a.dst[a.off:], c.Data)
	}
	return a.advance(len(c.Data)), nil
}

// Land implements transport.Lander for the frames of the transfer: an
// arriving frame that is exactly the chunk expected next is given its slot
// of the destination to be read into. Anything else — another message, a
// chunk out of order, short, long or past the total — is declined and
// arrives whole, for Add or the caller to reject as it always has. Land
// changes nothing: a landed chunk counts once AddLanded sees it.
func (a *ChunkAssembler) Land(frameLen int, peek []byte) (head int, dst []byte) {
	seq, size, ok := peekChunk(frameLen, peek)
	if !ok || a.dst == nil || a.expect(seq, size) != nil {
		return 0, nil
	}
	return chunkHeadSize, a.dst[a.off : a.off+size]
}

// AddLanded is Add for a chunk a transport landed through Land: head is
// what was received of the frame itself, landed the memory Land gave out,
// now holding the chunk's data. It returns the byte offset of the chunk.
func (a *ChunkAssembler) AddLanded(head, landed []byte) (off int, err error) {
	seq, size, ok := peekChunk(len(head)+len(landed), head)
	if !ok || len(head) != chunkHeadSize {
		return 0, fmt.Errorf("protocol: %d bytes landed behind a %d-byte head that is no stream chunk", len(landed), len(head))
	}
	if err := a.expect(seq, size); err != nil {
		return 0, err
	}
	if a.dst == nil || &landed[0] != &a.dst[a.off] {
		return 0, fmt.Errorf("protocol: stream chunk %d landed outside its transfer", seq)
	}
	return a.advance(size), nil
}

// Complete reports whether every declared byte has arrived.
func (a *ChunkAssembler) Complete() bool { return a.off == a.total }

// Finish validates the closing End message: the stream must be complete
// and the sender's chunk count must match what arrived. An early End (the
// out-of-order case) is an error.
func (a *ChunkAssembler) Finish(e *MemcpyStreamEndRequest) error {
	if !a.Complete() {
		return fmt.Errorf("protocol: stream end after %d of %d bytes", a.off, a.total)
	}
	if e.Chunks != a.next {
		return fmt.Errorf("protocol: stream end declares %d chunks, got %d", e.Chunks, a.next)
	}
	return nil
}

// Chunks returns how many chunks a transfer of total bytes takes at the
// given chunk size.
func Chunks(total, chunkSize uint32) uint32 {
	if chunkSize == 0 {
		return 0
	}
	return (total + chunkSize - 1) / chunkSize
}
