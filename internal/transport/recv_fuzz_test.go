package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"rcuda/internal/protocol"
)

// streamConn is a net.Conn whose reads come from a fixed byte stream, each
// cut short by its turn of a schedule of read sizes, as a socket's may be.
// The receive path touches nothing else of it but deadlines and Close.
type streamConn struct {
	net.Conn
	r     io.Reader
	reads []byte // the most each read returns, in turn; 0 (or none) leaves it whole
	next  int
}

func (c *streamConn) Read(p []byte) (int, error) {
	if len(c.reads) > 0 {
		if k := int(c.reads[c.next%len(c.reads)]); k > 0 && k < len(p) {
			p = p[:k]
		}
		c.next++
	}
	return c.r.Read(p)
}

func (c *streamConn) SetReadDeadline(time.Time) error { return nil }
func (c *streamConn) Close() error                    { return nil }

// streamEnd is how a byte stream ends after its last whole frame.
type streamEnd int

const (
	endEOF       streamEnd = iota // between frames
	endTruncated                  // inside a frame's header or payload
	endOversized                  // at a header declaring more than MaxFrameSize
	endHuge                       // at a header declaring more than fuzzFrameCap
)

// fuzzFrameCap bounds the frames the fuzzer receives. The reader sizes its
// buffer from the header before reading the payload, so a header declaring
// up to MaxFrameSize costs that much memory however short the stream is;
// the fuzzer stops before such a frame instead of receiving it.
const fuzzFrameCap = 1 << 20

// splitFrames is the reference split of a stream into length-prefixed
// frames, and how the stream ends after them.
func splitFrames(stream []byte) (frames [][]byte, end streamEnd) {
	for {
		if len(stream) == 0 {
			return frames, endEOF
		}
		if len(stream) < protocol.FrameHeaderSize {
			return frames, endTruncated
		}
		n := binary.LittleEndian.Uint32(stream)
		switch {
		case n > protocol.MaxFrameSize:
			return frames, endOversized
		case n > fuzzFrameCap:
			return frames, endHuge
		case int(n) > len(stream)-protocol.FrameHeaderSize:
			return frames, endTruncated
		}
		frames = append(frames, stream[protocol.FrameHeaderSize:protocol.FrameHeaderSize+int(n)])
		stream = stream[protocol.FrameHeaderSize+int(n):]
	}
}

// FuzzTCPRecv feeds arbitrary byte streams to the socket receive the daemon
// and the client run — the idle read, header peek, MaxFrameSize check,
// head, landed bytes and tail — once with no Lander and once with one that
// lands everything past a fuzzed head but a fuzzed tail, with socket reads
// cut short by a fuzzed schedule. Receiving never panics, returns no
// more bytes than remain in the stream, returns exactly the frames of a
// reference split, ends with io.EOF between frames and ErrTruncatedFrame
// inside one, and counts in Stats exactly the frames it returned.
func FuzzTCPRecv(f *testing.F) {
	var fw protocol.FrameWriter
	var malloc bytes.Buffer
	_ = fw.WriteFrame(&malloc, &protocol.MallocRequest{Size: 64})
	f.Add(malloc.Bytes(), uint8(0), []byte(nil))
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3, 4}, uint8(0), []byte(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}, uint8(0), []byte(nil))
	// A frame big enough to be offered to the Lander, then one cut short.
	bulk := binary.LittleEndian.AppendUint32(nil, LandFloor+8)
	bulk = append(bulk, make([]byte, LandFloor+8)...)
	f.Add(append(bulk, 16, 0, 0, 0, 1, 2, 3), uint8(45), []byte(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(0), []byte(nil))

	frame := func(n int) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, uint32(n)), bytes.Repeat([]byte{byte(n)}, n)...)
	}
	cat := func(fs ...[]byte) []byte { return bytes.Join(fs, nil) }
	// Frames exactly the size of the storage an idle read fills, one byte
	// under and one over: the connection's own, then the 256-byte buffer
	// kept from a 200-byte frame, which the schedule reads whole so that
	// the reader it borrowed goes back.
	own, kept := idleRecv-protocol.FrameHeaderSize, 256-protocol.FrameHeaderSize
	for _, d := range []int{0, -1, 1} {
		f.Add(cat(frame(own+d), frame(own+d)), uint8(0), []byte(nil))
		f.Add(cat(frame(200), frame(kept+d), frame(kept+d)), uint8(0), []byte{idleRecv, 204 - idleRecv, 0})
	}
	// Two frames in one read.
	f.Add(cat(frame(10), frame(20)), uint8(0), []byte(nil))
	// A header split across reads.
	f.Add(cat(frame(10), frame(300)), uint8(0), []byte{2, 3, 0})
	// A truncation inside the first read.
	f.Add(frame(100)[:40], uint8(0), []byte(nil))
	// An oversized header inside the first read.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint8(0), []byte(nil))

	f.Fuzz(func(t *testing.T, stream []byte, head uint8, reads []byte) {
		frames, end := splitFrames(stream)
		for _, landing := range []bool{false, true} {
			c := NewTCPConn(&streamConn{r: bytes.NewReader(stream), reads: reads})
			var l Lander
			var sl *scriptLander
			if landing {
				h, tail := int(head)%(LandPeek+1), int(head)/(LandPeek+1)
				sl = &scriptLander{mode: func(n int) (int, int) { return h, n - h - tail }}
				l = sl
			}
			left, total := len(stream), 0
			for i, want := range frames {
				payload, landed, _, err := c.RecvLanding(l)
				if err != nil {
					t.Fatalf("landing=%v: frame %d: %v", landing, i, err)
				}
				if len(payload)+len(landed) > left {
					t.Fatalf("landing=%v: frame %d: %d+%d bytes from %d left", landing, i, len(payload), len(landed), left)
				}
				got := payload
				if landed != nil {
					got = append(append(append([]byte(nil), payload[:sl.head]...), landed...), payload[sl.head:]...)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("landing=%v: frame %d: got %x, want %x", landing, i, got, want)
				}
				left -= protocol.FrameHeaderSize + len(want)
				total += len(want)
			}
			if end != endHuge {
				payload, landed, _, err := c.RecvLanding(l)
				if payload != nil || landed != nil {
					t.Fatalf("landing=%v: %d+%d bytes past the last frame", landing, len(payload), len(landed))
				}
				switch {
				case end == endEOF && err != io.EOF:
					t.Fatalf("landing=%v: stream ends between frames: %v, want io.EOF", landing, err)
				case end == endTruncated && !errors.Is(err, ErrTruncatedFrame):
					t.Fatalf("landing=%v: stream ends inside a frame: %v, want ErrTruncatedFrame", landing, err)
				case end == endOversized && (err == nil || err == io.EOF || errors.Is(err, ErrTruncatedFrame)):
					t.Fatalf("landing=%v: oversized header: %v", landing, err)
				}
			}
			if st := c.Stats(); st.BytesRecv != int64(total) || st.MessagesRecv != int64(len(frames)) {
				t.Fatalf("landing=%v: Stats %d bytes in %d messages, returned %d in %d",
					landing, st.BytesRecv, st.MessagesRecv, total, len(frames))
			}
			_ = c.Close()
		}
	})
}
