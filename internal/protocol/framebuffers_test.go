package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
)

// WriteFrame is the reference framer: it encodes the whole frame into one
// fresh contiguous buffer and writes it with a single Write.
func WriteFrame(w io.Writer, m Message) error {
	buf := make([]byte, FrameHeaderSize, FrameHeaderSize+m.WireSize())
	binary.LittleEndian.PutUint32(buf, uint32(m.WireSize()))
	buf = m.Encode(buf)
	if len(buf) != FrameHeaderSize+m.WireSize() {
		return fmt.Errorf("protocol: %T encoded %d bytes, declared %d",
			m, len(buf)-FrameHeaderSize, m.WireSize())
	}
	_, err := w.Write(buf)
	return err
}

// nextFrame splits the first length-prefixed frame off b; ok is false when
// b does not hold a whole one.
func nextFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < FrameHeaderSize {
		return nil, b, false
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > len(b)-FrameHeaderSize {
		return nil, b, false
	}
	return b[FrameHeaderSize : FrameHeaderSize+n], b[FrameHeaderSize+n:], true
}

// TestWriteFrameBuffersMatchesWriteFrame: the vectored framing must put
// byte-for-byte the same frames on the wire as the contiguous encoder, for
// segmented and non-segmented messages alike.
func TestWriteFrameBuffersMatchesWriteFrame(t *testing.T) {
	msgs := []Message{
		&MallocRequest{Size: 4096}, // non-Segmented fallback
		&InitRequest{Module: []byte("module bytes")},
		&MemcpyToDeviceRequest{Dst: 0x100, Data: bytes.Repeat([]byte{7}, 1000)},
		&MemcpyToDeviceRequest{Dst: 0x100, Data: nil}, // empty bulk segment
		&MemcpyToDeviceAsyncRequest{Dst: 0x100, Stream: 2, Data: []byte{1, 2, 3}},
		&MemcpyToHostResponse{Data: []byte{9, 8, 7}, Err: 0}, // head + bulk + tail
		&Chunk{Kind: OpMemcpyStreamChunk, Seq: 5, Data: bytes.Repeat([]byte{3}, 100)},
	}
	var fw FrameWriter
	for _, m := range msgs {
		var classic, vectored bytes.Buffer
		if err := WriteFrame(&classic, m); err != nil {
			t.Fatalf("%T: WriteFrame: %v", m, err)
		}
		if err := fw.WriteFrame(&vectored, m); err != nil {
			t.Fatalf("%T: FrameWriter.WriteFrame: %v", m, err)
		}
		if !bytes.Equal(classic.Bytes(), vectored.Bytes()) {
			t.Fatalf("%T: vectored frame differs:\n classic  %x\n vectored %x",
				m, classic.Bytes(), vectored.Bytes())
		}
		payload, rest, ok := nextFrame(vectored.Bytes())
		if !ok || len(rest) != 0 {
			t.Fatalf("%T: not one whole frame: %x", m, vectored.Bytes())
		}
		if !bytes.Equal(payload, m.Encode(nil)) {
			t.Fatalf("%T: frame payload does not match Encode", m)
		}
	}
}

// TestSegmentedEncodersAgree: for every Segmented message the three
// segments concatenated must equal the monolithic encoding.
func TestSegmentedEncodersAgree(t *testing.T) {
	msgs := []Segmented{
		&InitRequest{Module: []byte("mod")},
		&MemcpyToDeviceRequest{Dst: 1, Data: []byte{1, 2, 3}},
		&MemcpyToDeviceAsyncRequest{Dst: 1, Stream: 3, Data: []byte{4, 5}},
		&MemcpyToHostResponse{Data: []byte{6}, Err: 2},
		&Chunk{Kind: OpMemcpyStreamChunk, Seq: 1, Data: []byte{7, 8}},
	}
	for _, m := range msgs {
		parts := m.SegmentHead(nil)
		parts = append(parts, m.SegmentBulk()...)
		parts = m.SegmentTail(parts)
		if whole := m.Encode(nil); !bytes.Equal(parts, whole) {
			t.Fatalf("%T: segments %x != encode %x", m, parts, whole)
		}
		if len(parts) != m.WireSize() {
			t.Fatalf("%T: segments total %d, WireSize %d", m, len(parts), m.WireSize())
		}
	}
}

func TestDecodeMemcpyToHostResponseInto(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5}
	raw := (&MemcpyToHostResponse{Data: data}).Encode(nil)
	dst := make([]byte, len(data))
	code, err := DecodeMemcpyToHostResponseInto(raw, dst)
	if err != nil || code != 0 {
		t.Fatalf("decode into: code %d, err %v", code, err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatalf("dst = %x", dst)
	}
	// An error response legitimately carries no payload.
	errRaw := (&MemcpyToHostResponse{Err: 11}).Encode(nil)
	code, err = DecodeMemcpyToHostResponseInto(errRaw, dst)
	if err != nil || code != 11 {
		t.Fatalf("error response: code %d, err %v", code, err)
	}
	// A success response with the wrong payload length is a protocol error.
	if _, err := DecodeMemcpyToHostResponseInto(raw, make([]byte, 3)); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if _, err := DecodeMemcpyToHostResponseInto([]byte{1, 2}, dst); err == nil {
		t.Fatal("short response must fail")
	}
}

// TestWriteFramesMatchesTwoWriteFrames: a pair of frames written at once
// is byte for byte the two frames written one after the other, whether the
// first is Segmented or not, and a steady stream of pairs allocates
// nothing.
func TestWriteFramesMatchesTwoWriteFrames(t *testing.T) {
	hello := &SessionHelloRequest{Class: SchedClassRealtime, Weight: 2}
	firsts := []Message{
		&InitRequest{Module: bytes.Repeat([]byte{0x5a}, 3000)},
		&InitRequest{},
		&MallocRequest{Size: 4096},
	}
	var fw FrameWriter
	for _, first := range firsts {
		for _, next := range []Message{hello, &SessionHelloRequest{}} {
			var one, two bytes.Buffer
			if err := fw.WriteFrames(&one, first, next); err != nil {
				t.Fatalf("%T + %T: %v", first, next, err)
			}
			_ = WriteFrame(&two, first)
			_ = WriteFrame(&two, next)
			if !bytes.Equal(one.Bytes(), two.Bytes()) {
				t.Fatalf("%T + %T:\n pair %x\n two  %x", first, next, one.Bytes(), two.Bytes())
			}
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := fw.WriteFrames(io.Discard, firsts[0], hello); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("WriteFrames allocates %v times per pair, want 0", got)
	}
}
