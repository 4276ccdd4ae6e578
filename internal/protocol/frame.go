package protocol

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// FrameHeaderSize is the frame header: a 4-byte little-endian payload length. The stream needs a
// delimiter because several messages (the initialization module, memcpy
// data, launch variable region) carry variable-length payloads. The header
// is transport overhead — it is not part of the Table I byte accounting,
// whose measured latency curves already include all per-message framing.
const FrameHeaderSize = 4

// MaxFrameSize bounds a single frame. The largest legitimate payload is a
// cudaMemcpy of a full device allocation; the Tesla C1060 has 4 GB of
// device memory, but the paper's largest single transfer is a
// 1296 MB matrix, so 2 GiB leaves generous headroom while still rejecting
// corrupt headers.
const MaxFrameSize = 2 << 30

// Segmented is a message whose wire form is a small fixed head, a bulk
// payload that already exists as a caller-owned slice, and an optional
// small tail. Such messages can be framed with vectored I/O
// (WriteFrameBuffers) so the bulk bytes are never copied into a contiguous
// encode buffer.
type Segmented interface {
	Message
	// SegmentHead appends the fixed-size fields preceding the bulk payload.
	SegmentHead(dst []byte) []byte
	// SegmentBulk returns the bulk payload slice verbatim.
	SegmentBulk() []byte
	// SegmentTail appends the fixed-size fields following the bulk payload.
	SegmentTail(dst []byte) []byte
}

// FrameWriter frames messages with storage reused across calls: the
// header/head/tail encode buffer and the I/O vector both live on the writer,
// so a steady stream of frames allocates nothing. Until a frame outgrows
// them they are the writer's own arrays, so a connection's first frames —
// its whole life, for a session that only opens, allocates and closes —
// allocate nothing either. One FrameWriter serves one connection's send
// side; it is not safe for concurrent use, nor to be copied once used.
type FrameWriter struct {
	scratch []byte
	vecs    net.Buffers
	head    [64]byte
	vec     [3][]byte
}

// WriteFrame writes one length-prefixed frame containing the encoded
// message. A plain message goes out in a single Write call, so a TCP
// transport with Nagle disabled emits it eagerly, mirroring how the paper's
// middleware "explicitly control[s] the instant a frame must be sent out".
// A Segmented message's frame header, head, bulk payload and tail are
// gathered with a single vectored write (net.Buffers → writev on a TCP
// socket) instead of copying the bulk bytes into a contiguous buffer.
func (fw *FrameWriter) WriteFrame(w io.Writer, m Message) error {
	return fw.write(w, m, nil)
}

// WriteFrames writes the frame of first and then that of next in the one
// write WriteFrame would make for first alone: next's frame is encoded
// whole behind first's tail, so it should be small — the session hello
// frame that follows the init's module is at most 16 bytes. The bytes are
// those of two WriteFrame calls.
func (fw *FrameWriter) WriteFrames(w io.Writer, first, next Message) error {
	return fw.write(w, first, next)
}

// write frames m, and next behind it when next is not nil, in one write.
func (fw *FrameWriter) write(w io.Writer, m, next Message) error {
	if fw.scratch == nil {
		fw.scratch, fw.vecs = fw.head[:0], fw.vec[:0]
	}
	seg, ok := m.(Segmented)
	if !ok {
		// Fall back to a contiguous single-write frame, reusing scratch.
		buf, err := appendFrame(fw.scratch[:0], m)
		if err == nil && next != nil {
			buf, err = appendFrame(buf, next)
		}
		fw.scratch = buf[:0]
		if err != nil {
			return err
		}
		_, err = w.Write(buf)
		return err
	}
	buf := binary.LittleEndian.AppendUint32(fw.scratch[:0], uint32(m.WireSize()))
	buf = seg.SegmentHead(buf)
	headEnd := len(buf)
	buf = seg.SegmentTail(buf)
	bulk := seg.SegmentBulk()
	if got := len(buf) - FrameHeaderSize + len(bulk); got != m.WireSize() {
		fw.scratch = buf[:0]
		return fmt.Errorf("protocol: %T segments encode %d bytes, declared %d",
			m, got, m.WireSize())
	}
	var err error
	if next != nil {
		buf, err = appendFrame(buf, next)
	}
	fw.scratch = buf[:0]
	if err != nil {
		return err
	}
	vecs := append(fw.vecs[:0], buf[:headEnd])
	if len(bulk) > 0 {
		vecs = append(vecs, bulk)
	}
	if headEnd < len(buf) {
		vecs = append(vecs, buf[headEnd:])
	}
	fw.vecs = vecs
	_, err = fw.vecs.WriteTo(w) // consumes fw.vecs in place
	// Restore the vector to its backing start and drop payload references
	// so a finished frame does not pin the caller's bulk slice.
	for i := range vecs {
		vecs[i] = nil
	}
	fw.vecs = vecs[:0]
	return err
}

// appendFrame appends m's length-prefixed frame to dst.
func appendFrame(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.WireSize()))
	dst = m.Encode(dst)
	if got := len(dst) - start - FrameHeaderSize; got != m.WireSize() {
		return dst, fmt.Errorf("protocol: %T encoded %d bytes, declared %d", m, got, m.WireSize())
	}
	return dst, nil
}
