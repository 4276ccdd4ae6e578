package protocol

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAsyncOpNames(t *testing.T) {
	for op := OpStreamCreate; op < OpGetDeviceCount; op++ {
		if s := op.String(); s == "" || s[:2] == "Op" {
			t.Fatalf("async op %d has placeholder name %q", op, s)
		}
	}
}

func TestAsyncRequestRoundTrips(t *testing.T) {
	reqs := []Request{
		&StreamCreateRequest{},
		&StreamOpRequest{Code: OpStreamDestroy, Stream: 3},
		&StreamOpRequest{Code: OpStreamSynchronize, Stream: 9},
		&MemcpyToDeviceAsyncRequest{Dst: 0x100, Src: 0x0, Stream: 2, Data: []byte{1, 2, 3}},
		&MemcpyToHostAsyncRequest{Dst: 0, Src: 0x200, Size: 64, Stream: 5},
		&EventCreateRequest{},
		&EventRecordRequest{Event: 7, Stream: 2},
		&EventOpRequest{Code: OpEventSynchronize, Event: 7},
		&EventOpRequest{Code: OpEventDestroy, Event: 8},
		&EventElapsedRequest{Start: 1, End: 2},
	}
	for _, req := range reqs {
		enc := req.Encode(nil)
		if len(enc) != req.WireSize() {
			t.Fatalf("%T: encoded %d, WireSize %d", req, len(enc), req.WireSize())
		}
		dec, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("%T: %v", req, err)
		}
		if dec.Op() != req.Op() {
			t.Fatalf("%T: op %v round-tripped to %v", req, req.Op(), dec.Op())
		}
	}
}

func TestAsyncResponseRoundTrips(t *testing.T) {
	{
		r := &StreamCreateResponse{Err: 0, Stream: 4}
		got, err := DecodeStreamCreateResponse(r.Encode(nil))
		if err != nil || *got != *r {
			t.Fatalf("stream create response: %v %+v", err, got)
		}
	}
	{
		r := &EventCreateResponse{Err: 0, Event: 9}
		got, err := DecodeEventCreateResponse(r.Encode(nil))
		if err != nil || *got != *r {
			t.Fatalf("event create response: %v %+v", err, got)
		}
	}
	{
		r := &EventElapsedResponse{Err: 0, ElapsedNano: 123456789012345}
		enc := r.Encode(nil)
		if len(enc) != 12 {
			t.Fatalf("elapsed response %d bytes, want 12", len(enc))
		}
		got, err := DecodeEventElapsedResponse(enc)
		if err != nil || *got != *r {
			t.Fatalf("elapsed response: %v %+v", err, got)
		}
	}
}

func TestAsyncDecodeErrors(t *testing.T) {
	// Truncated async memcpy.
	bad := (&MemcpyToDeviceAsyncRequest{Data: []byte{1, 2}}).Encode(nil)
	bad[12] = 99 // size disagrees with payload
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("inconsistent async memcpy size must fail")
	}
	// Wrong kind.
	bad = (&MemcpyToHostAsyncRequest{Size: 4}).Encode(nil)
	bad[16] = 1
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("bad async memcpy kind must fail")
	}
	// Short stream op.
	if _, err := DecodeRequest((&StreamOpRequest{Code: OpStreamDestroy}).Encode(nil)[:5]); err == nil {
		t.Fatal("short stream op must fail")
	}
	if _, err := DecodeStreamCreateResponse([]byte{1}); err == nil {
		t.Fatal("short stream create response must fail")
	}
	if _, err := DecodeEventCreateResponse([]byte{1}); err == nil {
		t.Fatal("short event create response must fail")
	}
	if _, err := DecodeEventElapsedResponse([]byte{1}); err == nil {
		t.Fatal("short elapsed response must fail")
	}
	// Past every defined range.
	if _, err := DecodeRequest(putU32(nil, uint32(opCount))); err == nil {
		t.Fatal("unknown extended op must fail")
	}
}

// Property: async memcpy payloads survive the wire.
func TestAsyncMemcpyRoundTripProperty(t *testing.T) {
	f := func(dst, stream uint32, data []byte) bool {
		req := &MemcpyToDeviceAsyncRequest{Dst: dst, Stream: stream, Data: data}
		dec, err := DecodeRequest(req.Encode(nil))
		if err != nil {
			return false
		}
		got, ok := dec.(*MemcpyToDeviceAsyncRequest)
		return ok && got.Dst == dst && got.Stream == stream && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary bytes — a corrupt or
// malicious client must not crash the daemon.
func TestDecodeRequestNeverPanicsProperty(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = DecodeRequest(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: same for the response decoders.
func TestDecodeResponsesNeverPanicProperty(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = DecodeInitRequest(raw)
		_, _ = DecodeInitResponse(raw)
		_, _ = DecodeMallocResponse(raw)
		_, _ = DecodeCodeResponse(raw)
		_, _ = DecodeMemcpyToHostResponseInto(raw, make([]byte, 2))
		_, _ = DecodeStreamCreateResponse(raw)
		_, _ = DecodeEventCreateResponse(raw)
		_, _ = DecodeEventElapsedResponse(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
