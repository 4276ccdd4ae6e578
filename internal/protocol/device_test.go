package protocol

import "testing"

func TestDeviceOpNames(t *testing.T) {
	for op := OpGetDeviceCount; op < OpStreamQuery; op++ {
		if s := op.String(); s == "" || s[:2] == "Op" {
			t.Fatalf("device op %d has placeholder name %q", op, s)
		}
	}
}

func TestDeviceRequestRoundTrips(t *testing.T) {
	reqs := []Request{
		&GetDeviceCountRequest{},
		&SetDeviceRequest{Device: 2},
		&GetDevicePropertiesRequest{},
		&MemsetRequest{DevPtr: 0x100, Value: 0xAB, Size: 4096},
		&MemcpyD2DRequest{Dst: 0x200, Src: 0x100, Size: 512},
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
			t.Fatalf("%T: op mismatch", req)
		}
	}
	// Field fidelity for the argument-bearing ones.
	dec, err := DecodeRequest((&MemsetRequest{DevPtr: 7, Value: 9, Size: 11}).Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	m := dec.(*MemsetRequest)
	if m.DevPtr != 7 || m.Value != 9 || m.Size != 11 {
		t.Fatalf("memset fields %+v", m)
	}
	dec, err = DecodeRequest((&MemcpyD2DRequest{Dst: 1, Src: 2, Size: 3}).Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	d := dec.(*MemcpyD2DRequest)
	if d.Dst != 1 || d.Src != 2 || d.Size != 3 {
		t.Fatalf("d2d fields %+v", d)
	}
}

func TestDeviceResponseRoundTrips(t *testing.T) {
	{
		r := &GetDeviceCountResponse{Err: 0, Count: 4}
		got, err := DecodeGetDeviceCountResponse(r.Encode(nil))
		if err != nil || *got != *r {
			t.Fatalf("device count response: %v %+v", err, got)
		}
	}
	{
		r := &GetDevicePropertiesResponse{
			MemoryBytes:     4 << 30,
			CapabilityMajor: 1, CapabilityMinor: 3,
			Multiprocessors: 30, ClockMHz: 1296, MemoryMBps: 73000,
			Name: "Tesla C1060 (simulated)",
		}
		enc := r.Encode(nil)
		if len(enc) != r.WireSize() {
			t.Fatalf("properties encoded %d, WireSize %d", len(enc), r.WireSize())
		}
		got, err := DecodeGetDevicePropertiesResponse(enc, "")
		if err != nil || got != *r {
			t.Fatalf("properties response: %v\n got %+v\nwant %+v", err, got, r)
		}
		// Handed the name it decoded last, the decoder reuses it.
		if n := testing.AllocsPerRun(100, func() { got, _ = DecodeGetDevicePropertiesResponse(enc, got.Name) }); n != 0 {
			t.Fatalf("decoding the same name again allocates %v times, want 0", n)
		}
	}
}

func TestDeviceDecodeErrors(t *testing.T) {
	if _, err := DecodeRequest((&MemsetRequest{}).Encode(nil)[:10]); err == nil {
		t.Fatal("short memset must fail")
	}
	if _, err := DecodeRequest((&SetDeviceRequest{}).Encode(nil)[:5]); err == nil {
		t.Fatal("short set-device must fail")
	}
	if _, err := DecodeGetDeviceCountResponse([]byte{1, 2}); err == nil {
		t.Fatal("short count response must fail")
	}
	if _, err := DecodeGetDevicePropertiesResponse(make([]byte, 10), ""); err == nil {
		t.Fatal("short properties response must fail")
	}
	// Corrupt name length.
	bad := (&GetDevicePropertiesResponse{Name: "x"}).Encode(nil)
	bad[32] = 200
	if _, err := DecodeGetDevicePropertiesResponse(bad, ""); err == nil {
		t.Fatal("inconsistent properties name length must fail")
	}
}
