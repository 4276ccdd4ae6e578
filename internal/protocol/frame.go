package protocol

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// Frame header: a 4-byte little-endian payload length. The stream needs a
// delimiter because several messages (the initialization module, memcpy
// data, launch variable region) carry variable-length payloads. The header
// is transport overhead — it is not part of the Table I byte accounting,
// whose measured latency curves already include all per-message framing.
const frameHeaderSize = 4

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
// so a steady stream of frames allocates nothing. One FrameWriter serves one
// connection's send side; it is not safe for concurrent use.
type FrameWriter struct {
	scratch []byte
	vecs    net.Buffers
}

// WriteFrame writes one length-prefixed frame containing the encoded
// message. A plain message goes out in a single Write call, so a TCP
// transport with Nagle disabled emits it eagerly, mirroring how the paper's
// middleware "explicitly control[s] the instant a frame must be sent out".
// A Segmented message's frame header, head, bulk payload and tail are
// gathered with a single vectored write (net.Buffers → writev on a TCP
// socket) instead of copying the bulk bytes into a contiguous buffer.
func (fw *FrameWriter) WriteFrame(w io.Writer, m Message) error {
	seg, ok := m.(Segmented)
	if !ok {
		// Fall back to a contiguous single-write frame, reusing scratch.
		buf := append(fw.scratch[:0], 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(buf, uint32(m.WireSize()))
		buf = m.Encode(buf)
		fw.scratch = buf[:0]
		if len(buf) != frameHeaderSize+m.WireSize() {
			return fmt.Errorf("protocol: %T encoded %d bytes, declared %d",
				m, len(buf)-frameHeaderSize, m.WireSize())
		}
		_, err := w.Write(buf)
		return err
	}
	buf := append(fw.scratch[:0], 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(buf, uint32(m.WireSize()))
	buf = seg.SegmentHead(buf)
	headEnd := len(buf)
	buf = seg.SegmentTail(buf)
	fw.scratch = buf[:0]
	bulk := seg.SegmentBulk()
	if got := len(buf) - frameHeaderSize + len(bulk); got != m.WireSize() {
		return fmt.Errorf("protocol: %T segments encode %d bytes, declared %d",
			m, got, m.WireSize())
	}
	vecs := append(fw.vecs[:0], buf[:headEnd])
	if len(bulk) > 0 {
		vecs = append(vecs, bulk)
	}
	if headEnd < len(buf) {
		vecs = append(vecs, buf[headEnd:])
	}
	fw.vecs = vecs
	_, err := fw.vecs.WriteTo(w) // consumes fw.vecs in place
	// Restore the vector to its backing start and drop payload references
	// so a finished frame does not pin the caller's bulk slice.
	for i := range vecs {
		vecs[i] = nil
	}
	fw.vecs = vecs[:0]
	return err
}
