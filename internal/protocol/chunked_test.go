package protocol

import (
	"bytes"
	"strings"
	"testing"
)

func TestChunkedOpNames(t *testing.T) {
	for op, want := range map[Op]string{
		OpMemcpyStreamBegin: "cudaMemcpy (stream begin)",
		OpMemcpyStreamChunk: "cudaMemcpy (stream chunk)",
		OpMemcpyStreamEnd:   "cudaMemcpy (stream end)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", uint32(op), got, want)
		}
	}
}

func TestChunkedRequestRoundTrips(t *testing.T) {
	reqs := []Request{
		&MemcpyStreamBeginRequest{Ptr: 0x100, Total: 1 << 20, Kind: KindHostToDevice, ChunkSize: 1 << 16},
		&MemcpyStreamBeginRequest{Ptr: 0x200, Total: 7, Kind: KindDeviceToHost, ChunkSize: 4},
		&MemcpyStreamChunk{Seq: 3, Data: []byte{1, 2, 3, 4, 5}},
		&MemcpyStreamChunk{Seq: 0, Data: nil},
		&MemcpyStreamEndRequest{Chunks: 16},
	}
	for _, req := range reqs {
		enc := req.Encode(nil)
		if len(enc) != req.WireSize() {
			t.Fatalf("%T encodes %d bytes, declares %d", req, len(enc), req.WireSize())
		}
		back, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("%T: %v", req, err)
		}
		if !bytes.Equal(back.Encode(nil), enc) {
			t.Fatalf("%T does not round-trip", req)
		}
	}
}

func TestChunkedResponseRoundTrips(t *testing.T) {
	// The Begin acknowledgement and the End status are bare result codes.
	ack := &CodeResponse{Err: 11}
	back, err := DecodeCodeResponse(ack.Encode(nil))
	if err != nil || back != 11 {
		t.Fatalf("begin response round trip: %d, %v", back, err)
	}
	if _, err := DecodeCodeResponse([]byte{1, 2}); err == nil {
		t.Fatal("short begin response must fail")
	}
	if _, err := DecodeCodeResponse([]byte{}); err == nil {
		t.Fatal("short end response must fail")
	}
}

// TestStreamBeginRejectsBeforeAllocation: corrupt Begin fields must be
// rejected at decode time — nothing downstream may size a buffer from them.
func TestStreamBeginRejectsBeforeAllocation(t *testing.T) {
	encode := func(ptr, total, kind, chunkSize uint32) []byte {
		return (&MemcpyStreamBeginRequest{Ptr: ptr, Total: total, Kind: kind, ChunkSize: chunkSize}).Encode(nil)
	}
	cases := map[string][]byte{
		"bad kind":         encode(0, 64, 9, 16),
		"kind zero":        encode(0, 64, 0, 16),
		"oversize total":   encode(0, MaxFrameSize+1, KindHostToDevice, 1<<20),
		"zero chunk size":  encode(0, 64, KindHostToDevice, 0),
		"huge chunk size":  encode(0, 64, KindHostToDevice, MaxFrameSize+1),
		"truncated":        encode(0, 64, KindHostToDevice, 16)[:12],
		"trailing garbage": append(encode(0, 64, KindHostToDevice, 16), 0xee),
	}
	for name, raw := range cases {
		if _, err := DecodeRequest(raw); err == nil {
			t.Errorf("%s: decode must fail", name)
		}
	}
}

func TestStreamChunkDecodeErrors(t *testing.T) {
	good := (&MemcpyStreamChunk{Seq: 1, Data: []byte{1, 2, 3}}).Encode(nil)
	if _, err := DecodeMemcpyStreamChunk(good[:8]); err == nil {
		t.Fatal("truncated chunk must fail")
	}
	// Declared size larger than the remaining payload.
	short := append([]byte(nil), good...)
	short = short[:len(short)-1]
	if _, err := DecodeMemcpyStreamChunk(short); err == nil {
		t.Fatal("chunk with missing payload bytes must fail")
	}
	// Declared size smaller than the payload present.
	long := append(append([]byte(nil), good...), 0xaa)
	if _, err := DecodeMemcpyStreamChunk(long); err == nil {
		t.Fatal("chunk with excess payload bytes must fail")
	}
	wrongOp := append((&MemcpyStreamEndRequest{}).Encode(nil), 0, 0, 0, 0)
	if _, err := DecodeMemcpyStreamChunk(wrongOp); err == nil {
		t.Fatal("wrong op must fail")
	}
	// Data must alias the input buffer, not copy it.
	c, err := DecodeMemcpyStreamChunk(good)
	if err != nil {
		t.Fatal(err)
	}
	good[12] = 0x55
	if c.Data[0] != 0x55 {
		t.Fatal("chunk Data must alias the frame buffer")
	}
}

func TestChunkAssemblerReassembles(t *testing.T) {
	src := []byte("the quick brown fox jumps over the lazy dog")
	total, chunkSize := uint32(len(src)), uint32(10)
	dst := make([]byte, total)
	asm, err := NewChunkAssembler(total, chunkSize, dst)
	if err != nil {
		t.Fatal(err)
	}
	var seq uint32
	for off := 0; off < len(src); off += int(chunkSize) {
		end := off + int(chunkSize)
		if end > len(src) {
			end = len(src)
		}
		gotOff, err := asm.Add(&MemcpyStreamChunk{Seq: seq, Data: src[off:end]})
		if err != nil {
			t.Fatal(err)
		}
		if gotOff != off {
			t.Fatalf("chunk %d placed at %d, want %d", seq, gotOff, off)
		}
		seq++
	}
	if !asm.Complete() {
		t.Fatal("assembler not complete after all chunks")
	}
	if err := asm.Finish(&MemcpyStreamEndRequest{Chunks: Chunks(total, chunkSize)}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("reassembled %q", dst)
	}
}

// TestChunkAssemblerLandsWhatItWouldAdd plays one transfer through both
// routes — every chunk landed in its slot, every chunk added whole — and
// holds the landing route to the other's offsets, progress and result; then
// checks the frames Land must decline.
func TestChunkAssemblerLandsWhatItWouldAdd(t *testing.T) {
	src := []byte("the quick brown fox jumps over the lazy dog")
	total, chunkSize := uint32(len(src)), uint32(10)
	landedDst, addedDst := make([]byte, total), make([]byte, total)
	landing, _ := NewChunkAssembler(total, chunkSize, landedDst)
	adding, _ := NewChunkAssembler(total, chunkSize, addedDst)
	for seq, off := uint32(0), 0; off < len(src); seq, off = seq+1, off+int(chunkSize) {
		c := &MemcpyStreamChunk{Seq: seq, Data: src[off:min(off+int(chunkSize), len(src))]}
		frame := c.Encode(nil)
		if head, slot := landing.Land(len(frame), frame[:chunkHeadSize]); head != chunkHeadSize || len(slot) != len(c.Data) {
			t.Fatalf("chunk %d: Land = head %d, %d bytes", seq, head, len(slot))
		} else if _, again := landing.Land(len(frame), frame[:chunkHeadSize]); &again[0] != &slot[0] {
			t.Fatalf("chunk %d: Land moved the transfer on", seq)
		} else {
			copy(slot, frame[head:])
			gotOff, err := landing.AddLanded(frame[:head], slot)
			wantOff, addErr := adding.Add(c)
			if err != nil || addErr != nil || gotOff != wantOff {
				t.Fatalf("chunk %d: landed at %d (%v), added at %d (%v)", seq, gotOff, err, wantOff, addErr)
			}
		}
	}
	if !landing.Complete() || !bytes.Equal(landedDst, src) || !bytes.Equal(addedDst, src) {
		t.Fatalf("landed %q, added %q", landedDst, addedDst)
	}
	if err := landing.Finish(&MemcpyStreamEndRequest{Chunks: Chunks(total, chunkSize)}); err != nil {
		t.Fatal(err)
	}

	fresh := func(dst []byte) *ChunkAssembler {
		a, _ := NewChunkAssembler(20, 8, dst)
		return a
	}
	frame := func(seq, declared uint32, payload int) []byte {
		return append(putU32(putU32(putU32(nil, uint32(OpMemcpyStreamChunk)), seq), declared), make([]byte, payload)...)
	}
	for name, f := range map[string][]byte{
		"out of order":          frame(1, 8, 8),
		"short chunk":           frame(0, 4, 4),
		"long chunk":            frame(0, 9, 9),
		"size short of frame":   frame(0, 7, 8),
		"size past frame":       frame(0, 9, 8),
		"another message":       (&MemcpyToDeviceRequest{Dst: 1, Data: make([]byte, 8)}).Encode(nil),
		"head shorter than one": frame(0, 8, 8)[:8],
	} {
		if _, slot := fresh(make([]byte, 20)).Land(len(f), f[:min(len(f), chunkHeadSize)]); slot != nil {
			t.Errorf("%s: Land handed out %d bytes", name, len(slot))
		}
	}
	good := frame(0, 8, 8)
	if _, slot := fresh(nil).Land(len(good), good); slot != nil {
		t.Error("an assembler without a destination landed a chunk")
	}
	// A transfer that rejected a chunk lands nothing more.
	a := fresh(make([]byte, 20))
	if _, err := a.Add(&MemcpyStreamChunk{Seq: 1, Data: make([]byte, 8)}); err == nil {
		t.Fatal("out-of-order chunk accepted")
	}
	if _, slot := a.Land(len(good), good); slot != nil {
		t.Error("a rejected transfer landed a chunk")
	}
	// AddLanded takes only the memory Land gave out.
	a = fresh(make([]byte, 20))
	if _, err := a.AddLanded(good[:chunkHeadSize], make([]byte, 8)); err == nil {
		t.Error("AddLanded accepted memory outside the transfer")
	}
}

func TestChunkAssemblerRejectsProtocolViolations(t *testing.T) {
	mk := func() *ChunkAssembler {
		a, err := NewChunkAssembler(20, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	full := bytes.Repeat([]byte{1}, 8)

	if _, err := mk().Add(&MemcpyStreamChunk{Seq: 1, Data: full}); err == nil {
		t.Fatal("out-of-order first chunk must fail")
	}
	a := mk()
	if _, err := a.Add(&MemcpyStreamChunk{Seq: 0, Data: full}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Add(&MemcpyStreamChunk{Seq: 0, Data: full}); err == nil {
		t.Fatal("duplicate chunk must fail")
	}
	if _, err := mk().Add(&MemcpyStreamChunk{Seq: 0, Data: full[:5]}); err == nil {
		t.Fatal("undersized non-final chunk must fail")
	}
	// Final chunk must carry exactly the remainder (20 - 2*8 = 4).
	a = mk()
	a.Add(&MemcpyStreamChunk{Seq: 0, Data: full})
	a.Add(&MemcpyStreamChunk{Seq: 1, Data: full})
	if _, err := a.Add(&MemcpyStreamChunk{Seq: 2, Data: full}); err == nil {
		t.Fatal("oversized final chunk must fail")
	}
	// A rejected transfer is over: the chunk that would have been next is
	// refused too, so nothing more is placed in its destination.
	if _, err := a.Add(&MemcpyStreamChunk{Seq: 2, Data: full[:4]}); err == nil {
		t.Fatal("a transfer that rejected a chunk must stay rejected")
	}
	a = mk()
	a.Add(&MemcpyStreamChunk{Seq: 0, Data: full})
	a.Add(&MemcpyStreamChunk{Seq: 1, Data: full})
	if _, err := a.Add(&MemcpyStreamChunk{Seq: 2, Data: full[:4]}); err != nil {
		t.Fatal(err)
	}
	// A chunk past the declared total must fail; it does not undo the
	// complete transfer the End below closes.
	if _, err := a.Add(&MemcpyStreamChunk{Seq: 3, Data: full}); err == nil {
		t.Fatal("chunk past declared total must fail")
	}
	// Early End: out-of-order End before the stream completed.
	early := mk()
	early.Add(&MemcpyStreamChunk{Seq: 0, Data: full})
	if err := early.Finish(&MemcpyStreamEndRequest{Chunks: 1}); err == nil {
		t.Fatal("End before the declared total arrived must fail")
	} else if !strings.Contains(err.Error(), "stream end after") {
		t.Fatalf("unexpected early-End error: %v", err)
	}
	if err := a.Finish(&MemcpyStreamEndRequest{Chunks: 7}); err == nil {
		t.Fatal("End with wrong chunk count must fail")
	}
	if err := a.Finish(&MemcpyStreamEndRequest{Chunks: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestNewChunkAssemblerRejects(t *testing.T) {
	if _, err := NewChunkAssembler(MaxFrameSize+1, 1<<20, nil); err == nil {
		t.Fatal("oversize total must be rejected before any allocation")
	}
	if _, err := NewChunkAssembler(64, 0, nil); err == nil {
		t.Fatal("zero chunk size must fail")
	}
	if _, err := NewChunkAssembler(64, 16, make([]byte, 63)); err == nil {
		t.Fatal("mis-sized destination must fail")
	}
}

func TestChunks(t *testing.T) {
	cases := []struct{ total, chunk, want uint32 }{
		{0, 8, 0},
		{1, 8, 1},
		{8, 8, 1},
		{9, 8, 2},
		{64, 8, 8},
		{64, 0, 0},
	}
	for _, c := range cases {
		if got := Chunks(c.total, c.chunk); got != c.want {
			t.Errorf("Chunks(%d, %d) = %d, want %d", c.total, c.chunk, got, c.want)
		}
	}
}
