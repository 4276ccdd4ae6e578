package protocol

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary bytes to the request decoder: it must
// never panic and never return both a nil request and a nil error. Seeds
// cover every legitimate request shape.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []Request{
		&MallocRequest{Size: 64},
		&MemcpyToDeviceRequest{Dst: 1, Data: []byte{1, 2, 3}},
		&MemcpyToHostRequest{Src: 2, Size: 8},
		&LaunchRequest{Name: "sgemmNN", Params: []byte{1, 2, 3, 4}},
		&FreeRequest{DevPtr: 3},
		&SyncRequest{},
		&FinalizeRequest{},
		&StreamCreateRequest{},
		&StreamOpRequest{Code: OpStreamSynchronize, Stream: 1},
		&MemcpyToDeviceAsyncRequest{Dst: 1, Stream: 1, Data: []byte{9}},
		&MemcpyToHostAsyncRequest{Src: 1, Size: 4, Stream: 1},
		&EventCreateRequest{},
		&EventRecordRequest{Event: 1, Stream: 1},
		&EventOpRequest{Code: OpEventDestroy, Event: 1},
		&EventElapsedRequest{Start: 1, End: 2},
		&GetDeviceCountRequest{},
		&SetDeviceRequest{Device: 1},
		&GetDevicePropertiesRequest{},
		&MemsetRequest{DevPtr: 1, Value: 2, Size: 3},
		&MemcpyD2DRequest{Dst: 1, Src: 2, Size: 3},
		&MemcpyStreamBeginRequest{Ptr: 1, Total: 64, Kind: KindHostToDevice, ChunkSize: 16},
		&Chunk{Kind: OpMemcpyStreamChunk, Seq: 2, Data: []byte{1, 2, 3}},
		&MemcpyStreamEndRequest{Chunks: 4},
		&SessionHelloRequest{},
		&SessionHelloRequest{Class: SchedClassRealtime, Weight: 8},
		&SessionHelloRequest{Class: SchedClassBestEffort},
		&ReattachRequest{Session: 7},
		&StatsQueryRequest{},
		&BatchRequest{Seq: 1, Subs: [][]byte{
			(&LaunchRequest{Name: "sgemmNN", Params: []byte{1, 2, 3, 4}}).Encode(nil),
			(&EventRecordRequest{Event: 1, Stream: 1}).Encode(nil),
		}},
		// A frame closed by a synchronization, and the three misplacements of
		// a closing sub-op the decoder rejects: not last, alone, twice.
		&BatchRequest{Seq: 2, Subs: [][]byte{
			(&EventRecordRequest{Event: 1, Stream: 1}).Encode(nil),
			(&EventOpRequest{Code: OpEventSynchronize, Event: 1}).Encode(nil),
		}},
		&BatchRequest{Seq: 3, Subs: [][]byte{
			(&StreamOpRequest{Code: OpStreamSynchronize, Stream: 1}).Encode(nil),
			(&EventRecordRequest{Event: 1, Stream: 1}).Encode(nil),
		}},
		&BatchRequest{Seq: 4, Subs: [][]byte{(&SyncRequest{}).Encode(nil)}},
		&BatchRequest{Seq: 5, Subs: [][]byte{
			(&MemsetRequest{DevPtr: 1, Value: 2, Size: 3}).Encode(nil),
			(&StreamOpRequest{Code: OpStreamQuery, Stream: 1}).Encode(nil),
			(&EventOpRequest{Code: OpEventQuery, Event: 1}).Encode(nil),
		}},
		&SessionRestoreRequest{Session: 9},
		&MigrateBeginRequest{Total: 64, ChunkSize: 16},
		&Chunk{Kind: OpMigrateChunk, Seq: 2, Data: []byte{1, 2, 3}},
		&MigrateCommitRequest{Chunks: 4, Digest: 0xfeedface},
	}
	for _, s := range seeds {
		full := s.Encode(nil)
		f.Add(full)
		// Truncated prefixes model frames cut mid-payload by a fault; the
		// decoder must reject them without panicking.
		f.Add(full[:len(full)/2])
		if len(full) > 1 {
			f.Add(full[:len(full)-1])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Launch frames with the parameters offset at both ends of its range
	// and one step past each: decoded Params alias the frame from that
	// offset on, so the slice bounds are exactly what must never be wrong.
	lowEnd := (&LaunchRequest{Name: "", Params: []byte{1, 2, 3, 4}}).Encode(nil) // offset 1: empty name
	highEnd := (&LaunchRequest{Name: "sgemmNN"}).Encode(nil)                     // offset len(region): no params
	for _, frame := range [][]byte{lowEnd, highEnd} {
		f.Add(frame)
		for _, delta := range []int{-1, 1} {
			bad := append([]byte(nil), frame...)
			bad[8] = byte(int(bad[8]) + delta)
			f.Add(bad)
		}
	}
	// Heads a landing transport must refuse memory (see PeekMemcpyToDevice,
	// ChunkAssembler.Land): a declared size on either side of what the frame
	// carries, the wrong kind, a null destination, a chunk whose size field
	// disagrees with its frame.
	h2d := func(dst, declared, kind uint32, payload int) []byte {
		b := putU32(putU32(putU32(putU32(putU32(nil, uint32(OpMemcpyToDevice)), dst), 0), declared), kind)
		return append(b, make([]byte, payload)...)
	}
	f.Add(h2d(0x100, 7, KindHostToDevice, 8))
	f.Add(h2d(0x100, 9, KindHostToDevice, 8))
	f.Add(h2d(0x100, 8, KindDeviceToHost, 8))
	f.Add(h2d(0, 8, KindHostToDevice, 8))
	f.Add(append(putU32(putU32(putU32(nil, uint32(OpMemcpyStreamChunk)), 0), 7), make([]byte, 8)...))
	// Op-space sweep: a bare header for every op code the protocol has ever
	// declared — plus one past the end for the unknown-op path — and a
	// padded variant of each, so every dispatch branch of DecodeRequest is
	// in the corpus from the first run. TestOpTableTotal proves that every
	// declared op has a row that decodes; these seeds keep the dynamic
	// corpus aligned with the table as ops are added.
	for op := Op(0); op <= opCount; op++ {
		hdr := putU32(nil, uint32(op))
		f.Add(hdr)
		f.Add(append(hdr, 0, 0, 0, 0, 0, 0, 0, 0))
	}

	// One Decoder decodes every input, each time after a frame that leaves
	// all of its slabs and several slots full of something else: state that
	// bled from one decode into the next would change a verdict or the
	// bytes a request encodes back to.
	var long Decoder
	other := (&BatchRequest{Seq: 9, Subs: [][]byte{
		(&LaunchRequest{Name: "other", Params: []byte{9, 9}}).Encode(nil),
		(&MemcpyToDeviceAsyncRequest{Dst: 9, Data: []byte{9}}).Encode(nil),
		(&EventRecordRequest{Event: 9}).Encode(nil),
		(&MemsetRequest{DevPtr: 9, Value: 9, Size: 9}).Encode(nil),
	}}).Encode(nil)

	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := DecodeRequest(raw)
		if err == nil && req == nil {
			t.Fatal("nil request with nil error")
		}
		if _, oerr := long.Decode(other); oerr != nil {
			t.Fatal(oerr)
		}
		kept, kerr := long.Decode(raw)
		if fmt.Sprint(kerr) != fmt.Sprint(err) {
			t.Fatalf("a Decoder says %v, DecodeRequest %v", kerr, err)
		}
		if kerr == nil && !bytes.Equal(kept.Encode(nil), raw) {
			t.Fatalf("a Decoder in use re-encodes\n in  %x\n out %x", raw, kept.Encode(nil))
		}
		// A head may take landed bytes exactly when the whole frame decodes
		// to the request those bytes belong to.
		if dst, size, ok := PeekMemcpyToDevice(len(raw), raw); ok {
			m, isCopy := req.(*MemcpyToDeviceRequest)
			if err != nil || !isCopy || m.Dst != dst || len(m.Data) != size {
				t.Fatalf("head would land %d bytes at %#x, frame decodes to %v, %v", size, dst, req, err)
			}
			landed, err := fresh.DecodeLanded(raw[:memcpyToDeviceHeadSize], raw[memcpyToDeviceHeadSize:])
			if err != nil || landed.Dst != m.Dst || landed.Src != m.Src || !bytes.Equal(landed.Data, m.Data) {
				t.Fatalf("landed decode %v, %v; whole decode %v", landed, err, m)
			}
		} else if _, isCopy := req.(*MemcpyToDeviceRequest); isCopy && err == nil {
			t.Fatalf("frame decodes to a memcpy its head does not announce: %x", raw[:memcpyToDeviceHeadSize])
		}
		for _, op := range []Op{OpMemcpyStreamChunk, OpMigrateChunk} {
			if seq, size, ok := peekChunk(op, len(raw), raw); ok {
				m, isChunk := req.(*Chunk)
				if err != nil || !isChunk || m.Kind != op || m.Seq != seq || len(m.Data) != size {
					t.Fatalf("head announces %v %d of %d bytes, frame decodes to %v, %v", op, seq, size, req, err)
				}
			}
		}
		if err != nil {
			return
		}
		// Valid decodes must re-encode to the identical bytes
		// (canonical wire form round trip).
		enc := req.Encode(nil)
		if !bytes.Equal(enc, raw) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", raw, enc)
		}
	})
}

// FuzzChunkAssembler drives a chunk assembler of either stream — a chunked
// copy's or a migration's — with an arbitrary run of chunk, End and Commit
// frames: it must never panic, never write outside its destination, take
// only the chunks of its own stream, and only report success when the
// sequence was exactly the declared total in order. Every chunk frame that
// decodes must re-encode to its own bytes.
func FuzzChunkAssembler(f *testing.F) {
	chunk := func(op Op, seq uint32, data []byte) []byte {
		return (&Chunk{Kind: op, Seq: seq, Data: data}).Encode(nil)
	}
	copied := func(seq uint32, data []byte) []byte { return chunk(OpMemcpyStreamChunk, seq, data) }
	end := func(n uint32) []byte { return (&MemcpyStreamEndRequest{Chunks: n}).Encode(nil) }
	f.Add(false, uint32(32), uint32(8), bytes.Join([][]byte{
		copied(0, make([]byte, 8)), copied(1, make([]byte, 8)),
		copied(2, make([]byte, 8)), copied(3, make([]byte, 8)), end(4),
	}, nil))
	f.Add(false, uint32(8), uint32(8), bytes.Join([][]byte{copied(1, make([]byte, 8)), end(1)}, nil))
	f.Add(false, uint32(16), uint32(8), bytes.Join([][]byte{copied(0, make([]byte, 8)), end(1)}, nil))
	f.Add(false, uint32(0), uint32(1), end(0))
	commit := func(n uint32) []byte { return (&MigrateCommitRequest{Chunks: n, Digest: 1}).Encode(nil) }
	full := chunk(OpMigrateChunk, 0, []byte{1, 2, 3, 4})
	f.Add(true, uint32(4), uint32(4), append(full, commit(1)...))
	f.Add(true, uint32(4), uint32(4), full[:len(full)-1])
	f.Add(true, uint32(4), uint32(4), full[:11])
	f.Add(true, uint32(1), uint32(1), append(copied(0, []byte{1}), commit(1)...))
	f.Add(true, uint32(4), uint32(4), append(full, commit(2)...))

	f.Fuzz(func(t *testing.T, migrate bool, total, chunkSize uint32, stream []byte) {
		if total > 1<<16 {
			total %= 1 << 16 // keep the destination buffer small
		}
		if chunkSize == 0 {
			chunkSize = 1
		}
		op := OpMemcpyStreamChunk
		if migrate {
			op = OpMigrateChunk
		}
		dst := make([]byte, total)
		asm, err := NewChunkAssembler(op, total, chunkSize, dst)
		if err != nil {
			t.Fatalf("in-range parameters rejected: %v", err)
		}
		// Walk the byte stream as consecutive frames: each is a chunk of
		// either stream, an End or a Commit; anything else terminates the
		// walk.
		covered := 0
	walk:
		for len(stream) >= 8 {
			var declared uint32
			switch Op(getU32(stream, 0)) {
			case OpMemcpyStreamChunk, OpMigrateChunk:
				if len(stream) < 12 || 12+int(getU32(stream, 8)) > len(stream) {
					break walk
				}
				frame := stream[:12+int(getU32(stream, 8))]
				c, err := DecodeChunk(frame)
				if err != nil {
					t.Fatalf("framed chunk refused: %v", err)
				}
				if !bytes.Equal(c.Encode(nil), frame) {
					t.Fatalf("chunk re-encode mismatch:\n in  %x\n out %x", frame, c.Encode(nil))
				}
				if _, err := asm.Add(c); err == nil {
					if c.Kind != op {
						t.Fatalf("a %v stream took a %v", op, c.Kind)
					}
					covered += len(c.Data)
				}
				stream = stream[len(frame):]
				continue
			case OpMemcpyStreamEnd:
				declared, stream = getU32(stream, 4), stream[8:]
			case OpMigrateCommit:
				if len(stream) < 16 {
					break walk
				}
				declared, stream = getU32(stream, 4), stream[16:]
			default:
				break walk
			}
			if asm.Finish(declared) == nil && covered != int(total) {
				t.Fatalf("Finish accepted %d of %d bytes", covered, total)
			}
		}
		if asm.Complete() != (covered == int(total)) {
			t.Fatalf("Complete()=%v, accepted %d of %d bytes", asm.Complete(), covered, total)
		}
	})
}

// FuzzDecodeBatch stresses the OpBatch frame decoder: malformed sub-op
// lengths, truncated tails, sub-op counts past the cap, and non-batchable
// sub-ops — a closing one anywhere but last behind a batchable one
// included — must all be rejected without panics or absurd allocations,
// and every accepted frame must re-encode to the identical bytes.
func FuzzDecodeBatch(f *testing.F) {
	batch := func(seq uint64, subs ...Request) []byte {
		b := &BatchRequest{Seq: seq}
		for _, sub := range subs {
			b.Subs = append(b.Subs, sub.Encode(nil))
		}
		return b.Encode(nil)
	}
	good := batch(3,
		&MemcpyToDeviceAsyncRequest{Dst: 1, Stream: 1, Data: []byte{9, 8, 7}},
		&LaunchRequest{Name: "sgemmNN", Params: []byte{1, 2, 3, 4}},
		&EventRecordRequest{Event: 1, Stream: 1},
		&MemsetRequest{DevPtr: 1, Value: 0, Size: 16},
	)
	f.Add(good)
	f.Add(good[:len(good)-3])       // truncated tail
	f.Add(good[:17])                // cut inside the first sub-op header
	f.Add(batch(0, &SyncRequest{})) // closing sub-op alone
	f.Add(batch(4, &MemsetRequest{DevPtr: 1, Size: 16}, &EventOpRequest{Code: OpEventQuery, Event: 1}))
	f.Add(batch(1, &BatchRequest{Subs: [][]byte{{}}})) // nested batch
	f.Add((&BatchRequest{Seq: 2}).Encode(nil))         // empty batch
	corrupt := append([]byte(nil), good...)
	corrupt[16] = 0xff // first sub-op length overflows the frame
	f.Add(corrupt)
	huge := append([]byte(nil), good[:16]...)
	huge[12], huge[13] = 0xff, 0xff // declares 65535 sub-ops with no payload
	f.Add(huge)

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Force the op header so the fuzzer exercises the batch decoder
		// (mutated headers land in the other decoders, covered elsewhere).
		if len(raw) >= 4 {
			raw = append([]byte(nil), raw...)
			putU32(raw[:0], uint32(OpBatch))
		}
		req, err := DecodeRequest(raw)
		if err != nil {
			return
		}
		b, ok := req.(*BatchRequest)
		if !ok {
			t.Fatalf("decodeBatchRequest returned %T", req)
		}
		if len(b.Decoded) != len(b.Subs) || len(b.Subs) == 0 || len(b.Subs) > MaxBatchOps {
			t.Fatalf("inconsistent batch: %d subs, %d decoded", len(b.Subs), len(b.Decoded))
		}
		for i, sub := range b.Decoded {
			closing := i > 0 && i == len(b.Decoded)-1 && ClosesBatch(sub.Op())
			if !BatchableOp(sub.Op()) && !closing {
				t.Fatalf("non-batchable sub-op %d: %v", i, sub.Op())
			}
		}
		if enc := b.Encode(nil); !bytes.Equal(enc, raw) {
			t.Fatalf("batch re-encode mismatch:\n in  %x\n out %x", raw, enc)
		}
	})
}

// FuzzTryDecodeStatsQuery covers the probe handshake's first-payload
// sniffing: exactly one 4-byte spelling of the op is a stats query, and
// the decision must agree with the general request decoder.
func FuzzTryDecodeStatsQuery(f *testing.F) {
	f.Add((&StatsQueryRequest{}).Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add((&SyncRequest{}).Encode(nil))
	f.Add(append((&StatsQueryRequest{}).Encode(nil), 0)) // trailing byte

	f.Fuzz(func(t *testing.T, raw []byte) {
		q, ok := TryDecodeStatsQuery(raw)
		if ok != (q != nil) {
			t.Fatalf("ok=%v but query=%v", ok, q)
		}
		want := len(raw) == 4 && Op(getU32(raw, 0)) == OpStatsQuery
		if ok != want {
			t.Fatalf("TryDecodeStatsQuery=%v on %x, want %v", ok, raw, want)
		}
		if ok {
			if enc := q.Encode(nil); !bytes.Equal(enc, raw) {
				t.Fatalf("query re-encode mismatch: %x vs %x", enc, raw)
			}
		}
	})
}

// FuzzTryDecodeSessionRestore covers the migration handshake's
// first-payload sniffing: exactly one 12-byte spelling of the op is a
// restore request, and the decision must agree with the general request
// decoder.
func FuzzTryDecodeSessionRestore(f *testing.F) {
	f.Add((&SessionRestoreRequest{Session: 7}).Encode(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add((&ReattachRequest{Session: 7}).Encode(nil))
	f.Add(append((&SessionRestoreRequest{Session: 7}).Encode(nil), 0)) // trailing byte

	f.Fuzz(func(t *testing.T, raw []byte) {
		q, ok := TryDecodeSessionRestore(raw)
		if ok != (q != nil) {
			t.Fatalf("ok=%v but request=%v", ok, q)
		}
		want := len(raw) == 12 && Op(getU32(raw, 0)) == OpSessionRestore
		if ok != want {
			t.Fatalf("TryDecodeSessionRestore=%v on %x, want %v", ok, raw, want)
		}
		if ok {
			if enc := q.Encode(nil); !bytes.Equal(enc, raw) {
				t.Fatalf("restore re-encode mismatch: %x vs %x", enc, raw)
			}
		}
	})
}

// FuzzDecodeMigrateChunk stresses the chunk decoder on the frames the
// daemon-to-daemon migration stream trusts for payload framing: truncated
// headers and mismatched declared sizes must be rejected without panics,
// accepted chunks must re-encode canonically, and a migration's assembler
// must refuse a chunk of any other stream.
func FuzzDecodeMigrateChunk(f *testing.F) {
	full := (&Chunk{Kind: OpMigrateChunk, Seq: 3, Data: []byte{1, 2, 3, 4}}).Encode(nil)
	f.Add(full)
	f.Add(full[:len(full)-1])
	f.Add(full[:11])
	f.Add((&Chunk{Kind: OpMemcpyStreamChunk, Seq: 3, Data: []byte{1}}).Encode(nil))

	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := DecodeChunk(raw)
		if err != nil {
			return
		}
		if enc := c.Encode(nil); !bytes.Equal(enc, raw) {
			t.Fatalf("chunk re-encode mismatch:\n in  %x\n out %x", raw, enc)
		}
		if c.Kind != Op(getU32(raw, 0)) || c.Seq != getU32(raw, 4) || len(c.Data) != len(raw)-12 {
			t.Fatalf("chunk %v disagrees with its head %x", c, raw[:12])
		}
		asm, err := NewChunkAssembler(OpMigrateChunk, uint32(len(c.Data)), uint32(max(len(c.Data), 1)), make([]byte, len(c.Data)))
		if err != nil {
			t.Fatalf("in-range parameters rejected: %v", err)
		}
		if _, err := asm.Add(c); (err == nil) != (c.Kind == OpMigrateChunk && c.Seq == 0 && len(c.Data) > 0) {
			t.Fatalf("migration stream on %v chunk %d: %v", c.Kind, c.Seq, err)
		}
	})
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder: it
// must never panic, never allocate absurd buffers from corrupt counts, and
// every accepted payload must re-encode to the identical bytes.
func FuzzDecodeCheckpoint(f *testing.F) {
	seeds := []*Checkpoint{
		{Session: 1, Module: "matmul"},
		{Session: 3, Module: "stencil", SchedClass: SchedClassRealtime, SchedWeight: 4},
		{
			Session:        7,
			Module:         "fft",
			CurDevice:      1,
			SchedClass:     SchedClassBatch,
			SchedWeight:    1,
			LastBatchSeq:   42,
			LastBatchCodes: []uint32{0, 0, 2},
			Devices: []DeviceCheckpoint{
				{
					Device: 0,
					Allocs: []AllocCheckpoint{
						{Addr: 256, Size: 4, Data: []byte{1, 2, 3, 4}},
						{Addr: 512, Size: 2, Data: []byte{9, 9}},
					},
					Timeline: TimelineCheckpoint{
						EngineDone: [2]uint64{10, 20},
						Streams:    []TimelineEntry{{ID: 0, Done: 5}, {ID: 1, Done: 7}},
						Events:     []TimelineEntry{{ID: 1, Done: 6}},
						NextStream: 2,
						NextEvent:  2,
					},
				},
				{Device: 1},
			},
		},
	}
	for _, s := range seeds {
		full := s.Encode(nil)
		f.Add(full)
		f.Add(full[:len(full)/2])
		if len(full) > 1 {
			f.Add(full[:len(full)-1])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := DecodeCheckpoint(raw)
		if err == nil && c == nil {
			t.Fatal("nil checkpoint with nil error")
		}
		if err != nil {
			return
		}
		if c.WireSize() != len(raw) {
			t.Fatalf("WireSize %d for %d-byte payload", c.WireSize(), len(raw))
		}
		if enc := c.Encode(nil); !bytes.Equal(enc, raw) {
			t.Fatalf("checkpoint re-encode mismatch:\n in  %x\n out %x", raw, enc)
		}
	})
}

// FuzzDecodeInitRequest covers the positional initialization message.
func FuzzDecodeInitRequest(f *testing.F) {
	f.Add((&InitRequest{Module: []byte("module")}).Encode(nil))
	f.Add([]byte{0, 0, 0, 0})
	// The module aliases the frame, so the length field is all that stands
	// between the decoder and the bytes next to it: one short, one past.
	f.Add([]byte{5, 0, 0, 0, 'm', 'o', 'd', 'u', 'l', 'e'})
	f.Add([]byte{7, 0, 0, 0, 'm', 'o', 'd', 'u', 'l', 'e'})
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := DecodeInitRequest(raw)
		if err == nil {
			if len(req.Module) != len(raw)-4 || cap(req.Module) > cap(raw)-4 {
				t.Fatalf("module of %d bytes (cap %d) from a %d-byte frame", len(req.Module), cap(req.Module), len(raw))
			}
			if !bytes.Equal(req.Encode(nil), raw) {
				t.Fatal("init re-encode mismatch")
			}
		}
	})
}
