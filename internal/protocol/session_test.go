package protocol

import (
	"bytes"
	"errors"
	"testing"
)

func TestSessionOpNames(t *testing.T) {
	for op, want := range map[Op]string{
		OpSessionHello:    "session hello",
		OpSessionReattach: "session reattach",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", uint32(op), got, want)
		}
	}
}

func TestSessionHelloRoundTrip(t *testing.T) {
	req := &SessionHelloRequest{}
	raw := req.Encode(nil)
	if len(raw) != req.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(raw), req.WireSize())
	}
	decoded, err := DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded.(*SessionHelloRequest); !ok {
		t.Fatalf("decoded %#v", decoded)
	}

	resp := &SessionHelloResponse{Err: 0, Session: 0xDEADBEEFCAFE}
	rraw := resp.Encode(nil)
	if len(rraw) != resp.WireSize() {
		t.Fatalf("response encoded %d bytes, WireSize says %d", len(rraw), resp.WireSize())
	}
	back, err := DecodeSessionHelloResponse(rraw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Session != resp.Session || back.Err != resp.Err {
		t.Fatalf("round trip %+v -> %+v", resp, back)
	}
}

// TestSessionHelloClassForms covers the dual encoding: the bare 4-byte
// hello and the extended 12-byte class/weight form, plus the typed
// rejections for out-of-range fields.
func TestSessionHelloClassForms(t *testing.T) {
	bare := &SessionHelloRequest{}
	if got := bare.Encode(nil); len(got) != 4 || bare.WireSize() != 4 {
		t.Fatalf("bare hello encoded %d bytes (WireSize %d), want 4", len(got), bare.WireSize())
	}
	ext := &SessionHelloRequest{Class: SchedClassRealtime, Weight: 8}
	raw := ext.Encode(nil)
	if len(raw) != 12 || ext.WireSize() != 12 {
		t.Fatalf("extended hello encoded %d bytes (WireSize %d), want 12", len(raw), ext.WireSize())
	}
	decoded, err := DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decoded.(*SessionHelloRequest)
	if !ok || got.Class != SchedClassRealtime || got.Weight != 8 {
		t.Fatalf("extended hello decoded as %#v", decoded)
	}

	badClass := (&SessionHelloRequest{Class: maxSchedClass + 1, Weight: 1}).Encode(nil)
	if _, err := DecodeRequest(badClass); !errors.Is(err, ErrBadSchedClass) {
		t.Fatalf("class out of range: %v, want ErrBadSchedClass", err)
	}
	badWeight := (&SessionHelloRequest{Class: SchedClassBatch, Weight: MaxSchedWeight + 1}).Encode(nil)
	if _, err := DecodeRequest(badWeight); !errors.Is(err, ErrBadSchedWeight) {
		t.Fatalf("weight out of range: %v, want ErrBadSchedWeight", err)
	}
	// The all-defaults extended spelling is non-canonical; only the bare
	// form encodes it.
	zeroExt := append(bare.Encode(nil), 0, 0, 0, 0, 0, 0, 0, 0)
	if _, err := DecodeRequest(zeroExt); err == nil {
		t.Fatal("non-canonical zero extended hello accepted")
	}
	// A truncated extended form is neither valid spelling.
	if _, err := DecodeRequest(raw[:8]); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("truncated hello: %v, want ErrShortMessage", err)
	}
}

func TestReattachRoundTrip(t *testing.T) {
	req := &ReattachRequest{Session: 42}
	raw := req.Encode(nil)
	if len(raw) != req.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(raw), req.WireSize())
	}
	got, ok := TryDecodeReattach(raw)
	if !ok || got.Session != 42 {
		t.Fatalf("TryDecodeReattach = %+v, %v", got, ok)
	}
	decoded, err := DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := decoded.(*ReattachRequest); !ok || r.Session != 42 {
		t.Fatalf("DecodeRequest gave %#v", decoded)
	}
	if !bytes.Equal(decoded.(*ReattachRequest).Encode(nil), raw) {
		t.Fatal("re-encode mismatch")
	}

	resp := &ReattachResponse{Err: 3, CapabilityMajor: 1, CapabilityMinor: 2}
	back, err := DecodeReattachResponse(resp.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if *back != *resp {
		t.Fatalf("round trip %+v -> %+v", resp, back)
	}
}

// TestTryDecodeReattachRejectsInitPayloads guards the handshake
// discrimination: genuine init payloads — including pathological module
// lengths — must never be mistaken for a reattach.
func TestTryDecodeReattachRejectsInitPayloads(t *testing.T) {
	inits := [][]byte{
		(&InitRequest{Module: []byte("m")}).Encode(nil),
		(&InitRequest{Module: []byte("12345678")}).Encode(nil), // 12 bytes total
		(&InitRequest{}).Encode(nil),
	}
	for _, raw := range inits {
		if r, ok := TryDecodeReattach(raw); ok {
			t.Fatalf("init payload %x misread as reattach %+v", raw, r)
		}
	}
	// And the reverse: a reattach frame must not decode as a plausible init.
	reattach := (&ReattachRequest{Session: 1}).Encode(nil)
	if ir, err := DecodeInitRequest(reattach); err == nil && len(ir.Module) == 8 {
		// A 12-byte frame would need a declared module length of
		// OpSessionReattach (the leading u32), which is far larger than the
		// 8 remaining bytes, so the init decoder must reject it.
		t.Fatalf("reattach frame decoded as init with module %x", ir.Module)
	}
}

// TestDecodeRequestNeverPanicsOnTruncation runs every request shape
// through DecodeRequest at every prefix length: the decoder must return an
// error or a valid request, never panic. This is the deterministic core of
// the truncated-frame fuzz coverage.
func TestDecodeRequestNeverPanicsOnTruncation(t *testing.T) {
	msgs := []Request{
		&MallocRequest{Size: 64},
		&MemcpyToDeviceRequest{Dst: 1, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		&MemcpyToHostRequest{Src: 2, Size: 8},
		&LaunchRequest{Name: "sgemmNN", Params: []byte{1, 2, 3, 4}},
		&FreeRequest{DevPtr: 3},
		&SyncRequest{},
		&FinalizeRequest{},
		&StreamCreateRequest{},
		&StreamOpRequest{Code: OpStreamSynchronize, Stream: 1},
		&MemcpyToDeviceAsyncRequest{Dst: 1, Stream: 1, Data: []byte{9, 8, 7}},
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
		&MemcpyStreamChunk{Seq: 2, Data: []byte{1, 2, 3}},
		&MemcpyStreamEndRequest{Chunks: 4},
		&SessionHelloRequest{},
		&ReattachRequest{Session: 9},
		&StatsQueryRequest{},
	}
	for _, m := range msgs {
		full := m.Encode(nil)
		for cut := 0; cut <= len(full); cut++ {
			raw := full[:cut]
			req, err := DecodeRequest(raw) // must not panic
			if err == nil && req == nil {
				t.Fatalf("%v cut at %d: nil request, nil error", m.Op(), cut)
			}
			if cut < len(full) && err == nil && !bytes.Equal(req.Encode(nil), raw) {
				t.Fatalf("%v cut at %d decoded to a different message", m.Op(), cut)
			}
		}
		// Single-byte corruption of the op field must yield an error or a
		// message that still re-encodes canonically, never a panic.
		for bit := 0; bit < 8; bit++ {
			raw := bytes.Clone(full)
			raw[0] ^= 1 << bit
			req, err := DecodeRequest(raw)
			if err == nil {
				if req == nil {
					t.Fatalf("%v bitflip %d: nil request, nil error", m.Op(), bit)
				}
				if !bytes.Equal(req.Encode(nil), raw) {
					t.Fatalf("%v bitflip %d: corrupt frame re-encoded differently", m.Op(), bit)
				}
			}
		}
	}
	if _, err := DecodeRequest([]byte{}); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("empty payload: %v, want ErrShortMessage", err)
	}
	if _, err := DecodeRequest([]byte{0xEE, 0xFF, 0xFF, 0xFF}); !errors.Is(err, ErrBadOp) {
		t.Fatalf("unknown op: %v, want ErrBadOp", err)
	}
}
