package protocol

import (
	"bytes"
	"errors"
	"testing"
)

// TestMigrateRequestRoundTrip drives every migration request shape through
// the general decoder and back.
func TestMigrateRequestRoundTrip(t *testing.T) {
	cases := []Request{
		&SessionRestoreRequest{Session: 0xdeadbeefcafe},
		&MigrateBeginRequest{Total: 4096, ChunkSize: 256},
		&MigrateChunk{Seq: 7, Data: []byte{1, 2, 3, 4, 5}},
		&MigrateChunk{Seq: 0, Data: nil},
		&MigrateCommitRequest{Chunks: 16, Digest: 0x0123456789abcdef},
	}
	for _, want := range cases {
		raw := want.Encode(nil)
		if len(raw) != want.WireSize() {
			t.Fatalf("%v: encoded %d bytes, WireSize %d", want.Op(), len(raw), want.WireSize())
		}
		got, err := DecodeRequest(raw)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Op(), err)
		}
		if got.Op() != want.Op() {
			t.Fatalf("decoded op %v, want %v", got.Op(), want.Op())
		}
		if enc := got.Encode(nil); !bytes.Equal(enc, raw) {
			t.Fatalf("%v: re-encode mismatch", want.Op())
		}
	}
}

// TestMigrateBeginValidation rejects corrupt stream geometry before any
// buffer is sized from it.
func TestMigrateBeginValidation(t *testing.T) {
	encode := func(total, chunk uint32) []byte {
		dst := putU32(nil, uint32(OpMigrateBegin))
		dst = putU32(dst, total)
		return putU32(dst, chunk)
	}
	if _, err := DecodeRequest(encode(64, 0)); err == nil {
		t.Fatal("zero chunk size accepted")
	}
	if _, err := DecodeRequest(encode(64, 16)[:8]); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("truncated begin: %v, want ErrShortMessage", err)
	}
}

// TestMigrateResponsesRoundTrip covers the three acknowledgements — restore,
// begin, commit — all the one bare-code shape.
func TestMigrateResponsesRoundTrip(t *testing.T) {
	for _, code := range []uint32{CodeServerBusy, 3, 0} {
		got, err := DecodeCodeResponse((&CodeResponse{Err: code}).Encode(nil))
		if err != nil || got != code {
			t.Fatalf("acknowledgement %d: %d, %v", code, got, err)
		}
	}
}

// TestTryDecodeSessionRestoreSniff pins the handshake sniff against the
// other first-payload shapes it shares a port with.
func TestTryDecodeSessionRestoreSniff(t *testing.T) {
	if _, ok := TryDecodeSessionRestore((&SessionRestoreRequest{Session: 1}).Encode(nil)); !ok {
		t.Fatal("restore request not recognized")
	}
	foreign := [][]byte{
		(&ReattachRequest{Session: 1}).Encode(nil),
		(&StatsQueryRequest{}).Encode(nil),
		(&InitRequest{Module: []byte("modmod")}).Encode(nil),
		nil,
	}
	for _, raw := range foreign {
		if _, ok := TryDecodeSessionRestore(raw); ok {
			t.Fatalf("foreign payload %x sniffed as restore", raw)
		}
	}
}

// TestCheckpointRoundTrip is the table-driven serialization suite: every
// session shape the server can checkpoint must survive encode→decode
// bit-exactly, including the nil-vs-present batch dedup window.
func TestCheckpointRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		c    *Checkpoint
	}{
		{"empty session", &Checkpoint{Session: 1, Module: "matmul"}},
		{"scheduling class", &Checkpoint{
			Session: 9, Module: "dnn", SchedClass: SchedClassRealtime, SchedWeight: 16,
		}},
		{"multi-device allocations", &Checkpoint{
			Session:   2,
			Module:    "fft",
			CurDevice: 1,
			Devices: []DeviceCheckpoint{
				{
					Device: 0,
					Allocs: []AllocCheckpoint{
						{Addr: 256, Size: 8, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
						{Addr: 1024, Size: 3, Data: []byte{9, 8, 7}},
					},
					Timeline: TimelineCheckpoint{
						EngineDone: [2]uint64{100, 250},
						Streams:    []TimelineEntry{{ID: 0, Done: 250}, {ID: 1, Done: 90}},
						Events:     []TimelineEntry{{ID: 1, Done: 120}},
						NextStream: 2,
						NextEvent:  2,
					},
				},
				{
					Device: 1,
					Allocs: []AllocCheckpoint{{Addr: 256, Size: 1, Data: []byte{42}}},
					Timeline: TimelineCheckpoint{
						Streams:    []TimelineEntry{{ID: 0, Done: 0}},
						NextStream: 1,
						NextEvent:  1,
					},
				},
			},
		}},
		{"pending async batch", &Checkpoint{
			Session:        3,
			Module:         "dnn",
			LastBatchSeq:   17,
			LastBatchCodes: []uint32{0, 0, 0, 2},
			Devices: []DeviceCheckpoint{{
				Device:   0,
				Timeline: TimelineCheckpoint{EngineDone: [2]uint64{0, 900}, NextStream: 3, NextEvent: 5},
			}},
		}},
		{"quota at limit", &Checkpoint{
			Session: 4,
			Module:  "matmul",
			Devices: []DeviceCheckpoint{{
				Device: 0,
				Allocs: []AllocCheckpoint{
					{Addr: 256, Size: 512, Data: make([]byte, 512)},
					{Addr: 768, Size: 512, Data: make([]byte, 512)},
				},
			}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.c.Encode(nil)
			if len(raw) != tc.c.WireSize() {
				t.Fatalf("encoded %d bytes, WireSize %d", len(raw), tc.c.WireSize())
			}
			got, err := DecodeCheckpoint(raw)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if enc := got.Encode(nil); !bytes.Equal(enc, raw) {
				t.Fatal("re-encode mismatch")
			}
			if (got.LastBatchCodes == nil) != (tc.c.LastBatchCodes == nil) {
				t.Fatal("batch dedup window presence not preserved")
			}
			if got.Session != tc.c.Session || got.Module != tc.c.Module || got.CurDevice != tc.c.CurDevice {
				t.Fatalf("identity fields drifted: %+v", got)
			}
			if got.SchedClass != tc.c.SchedClass || got.SchedWeight != tc.c.SchedWeight {
				t.Fatalf("scheduling fields drifted: %+v", got)
			}
		})
	}
}

// TestCheckpointDecodeRejects pins the decoder's failure modes: trailing
// garbage, truncation, a foreign version, and an absurd list count.
func TestCheckpointDecodeRejects(t *testing.T) {
	good := (&Checkpoint{Session: 1, Module: "m"}).Encode(nil)
	if _, err := DecodeCheckpoint(append(good, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeCheckpoint(good[:len(good)-1]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	bad := append([]byte(nil), good...)
	putU32(bad[:0], CheckpointVersion+1)
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Fatal("foreign version accepted")
	}
	huge := append([]byte(nil), good...)
	putU32(huge[len(huge)-4:len(huge)-4], 0xffffffff) // device count
	if _, err := DecodeCheckpoint(huge); err == nil {
		t.Fatal("absurd device count accepted")
	}
}

// TestCheckpointRejectsBadSchedFields pins the typed errors for
// out-of-range scheduling parameters: a forged checkpoint cannot smuggle a
// hostile class or weight past the decoder.
func TestCheckpointRejectsBadSchedFields(t *testing.T) {
	base := &Checkpoint{Session: 1, Module: "m", SchedClass: SchedClassBatch, SchedWeight: 2}
	raw := base.Encode(nil)
	// SchedClass sits right after CurDevice: version(4)+session(8)+
	// module len(4)+module(1)+curdev(4) = offset 21.
	off := 4 + 8 + 4 + len(base.Module) + 4
	badClass := append([]byte(nil), raw...)
	putU32(badClass[off:off], maxSchedClass+1)
	if _, err := DecodeCheckpoint(badClass); !errors.Is(err, ErrBadSchedClass) {
		t.Fatalf("bad class: %v, want ErrBadSchedClass", err)
	}
	badWeight := append([]byte(nil), raw...)
	putU32(badWeight[off+4:off+4], MaxSchedWeight+1)
	if _, err := DecodeCheckpoint(badWeight); !errors.Is(err, ErrBadSchedWeight) {
		t.Fatalf("bad weight: %v, want ErrBadSchedWeight", err)
	}
}

// TestMigrateChunkAssembly streams a checkpoint through MigrateChunk
// frames into a ChunkAssembler and verifies the digest survives.
func TestMigrateChunkAssembly(t *testing.T) {
	c := &Checkpoint{Session: 5, Module: "fft", Devices: []DeviceCheckpoint{{
		Device: 0,
		Allocs: []AllocCheckpoint{{Addr: 256, Size: 64, Data: bytes.Repeat([]byte{0xab}, 64)}},
	}}}
	payload := c.Encode(nil)
	const chunkSize = 16
	dst := make([]byte, len(payload))
	asm, err := NewChunkAssembler(uint32(len(payload)), chunkSize, dst)
	if err != nil {
		t.Fatal(err)
	}
	var n uint32
	for off := 0; off < len(payload); off += chunkSize {
		end := off + chunkSize
		if end > len(payload) {
			end = len(payload)
		}
		mc := &MigrateChunk{Seq: n, Data: payload[off:end]}
		wire, err := DecodeMigrateChunk(mc.Encode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := asm.Add(wire.Stream()); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if !asm.Complete() {
		t.Fatal("assembler incomplete after all chunks")
	}
	if MigrateDigest(dst) != MigrateDigest(payload) {
		t.Fatal("digest mismatch after reassembly")
	}
	if _, err := DecodeCheckpoint(dst); err != nil {
		t.Fatalf("reassembled checkpoint does not decode: %v", err)
	}
}
