package protocol

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

// Table I fixed sizes: these are the paper's published numbers and must be
// derived unchanged from the encoders.
func TestTableIFixedSizes(t *testing.T) {
	cases := []struct {
		op         Op
		send, recv int
	}{
		{OpInit, 4, 12},           // x+4 / 12
		{OpMalloc, 8, 8},          // 8 / 8
		{OpMemcpyToDevice, 20, 4}, // x+20 / 4
		{OpMemcpyToHost, 20, 4},   // 20 / x+4
		{OpLaunch, 44, 4},         // x+44 / 4
		{OpFree, 8, 4},            // 8 / 4
		{OpDeviceSynchronize, 4, 4} /* extension */}
	for _, c := range cases {
		if got := FixedSendBytes(c.op); got != c.send {
			t.Errorf("%v: fixed send bytes = %d, want %d", c.op, got, c.send)
		}
		if got := FixedReceiveBytes(c.op); got != c.recv {
			t.Errorf("%v: fixed receive bytes = %d, want %d", c.op, got, c.recv)
		}
	}
}

// The documentation table must agree with the encoders.
func TestTableIDocumentationMatchesEncoders(t *testing.T) {
	ops := map[string]Op{
		"Initialization":         OpInit,
		"cudaMalloc":             OpMalloc,
		"cudaMemcpy (to device)": OpMemcpyToDevice,
		"cudaMemcpy (to host)":   OpMemcpyToHost,
		"cudaLaunch":             OpLaunch,
		"cudaFree":               OpFree,
	}
	rows := TableI()
	if len(rows) != len(ops) {
		t.Fatalf("TableI has %d rows, want %d", len(rows), len(ops))
	}
	for _, row := range rows {
		op, ok := ops[row.Operation]
		if !ok {
			t.Fatalf("unexpected Table I operation %q", row.Operation)
		}
		send, _, recv, _ := row.Totals()
		if send != FixedSendBytes(op) {
			t.Errorf("%s: documented send %d != encoder %d", row.Operation, send, FixedSendBytes(op))
		}
		if recv != FixedReceiveBytes(op) {
			t.Errorf("%s: documented recv %d != encoder %d", row.Operation, recv, FixedReceiveBytes(op))
		}
	}
}

// The paper's case studies: the MM module is 21,486 bytes, so the
// initialization message sends 21,490; the FFT module is 7,852 bytes,
// sending 7,856.
func TestModuleMessageSizes(t *testing.T) {
	mm := &InitRequest{Module: make([]byte, 21486)}
	if got := mm.WireSize(); got != 21490 {
		t.Fatalf("MM init message = %d bytes, want 21490", got)
	}
	fft := &InitRequest{Module: make([]byte, 7852)}
	if got := fft.WireSize(); got != 7856 {
		t.Fatalf("FFT init message = %d bytes, want 7856", got)
	}
}

// Launch messages in the case studies: Table II lists 52 bytes for the MM
// launch and 58 for the FFT launch, i.e. variable regions of 8 and 14
// bytes (kernel name plus NUL plus packed parameters).
func TestLaunchMessageSizeExamples(t *testing.T) {
	mm := &LaunchRequest{Name: "sgemmNN", Params: nil}
	if got := mm.WireSize(); got != 52 {
		t.Fatalf("MM launch = %d bytes, want 52", got)
	}
	fft := &LaunchRequest{Name: "fft512_batch", Params: []byte{1}}
	if got := fft.WireSize(); got != 58 {
		t.Fatalf("FFT launch = %d bytes, want 58", got)
	}
}

func TestInitRoundTrip(t *testing.T) {
	req := &InitRequest{Module: []byte("binary kernel module blob")}
	got, err := DecodeInitRequest(req.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Module, req.Module) {
		t.Fatal("init module corrupted in round trip")
	}
	resp := &InitResponse{CapabilityMajor: 1, CapabilityMinor: 3, Err: 0}
	gotResp, err := DecodeInitResponse(resp.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if *gotResp != *resp {
		t.Fatalf("init response round trip: got %+v, want %+v", gotResp, resp)
	}
}

func TestInitDecodeErrors(t *testing.T) {
	if _, err := DecodeInitRequest([]byte{1, 2}); err == nil {
		t.Fatal("want error for short init")
	}
	// Declared length disagrees with payload.
	bad := (&InitRequest{Module: []byte{1, 2, 3}}).Encode(nil)[:6]
	if _, err := DecodeInitRequest(bad); err == nil {
		t.Fatal("want error for truncated module")
	}
	// ... and the other way: a length field one short of the frame.
	long := append((&InitRequest{Module: []byte{1, 2, 3}}).Encode(nil), 4)
	if _, err := DecodeInitRequest(long); err == nil {
		t.Fatal("want error for a module shorter than its frame")
	}
	if _, err := DecodeInitResponse([]byte{0}); err == nil {
		t.Fatal("want error for short init response")
	}
}

func TestRequestRoundTrips(t *testing.T) {
	reqs := []Request{
		&MallocRequest{Size: 1 << 26},
		&MemcpyToDeviceRequest{Dst: 0x1000, Src: 0xdead, Data: []byte{9, 8, 7}},
		&MemcpyToHostRequest{Dst: 0xbeef, Src: 0x2000, Size: 4096},
		&LaunchRequest{
			TextureOffset: 3, NumTextures: 1,
			BlockDim: [3]uint32{16, 16, 1}, GridDim: [2]uint32{256, 256},
			SharedSize: 2048, Stream: 0,
			Name: "sgemmNN", Params: []byte{1, 2, 3, 4},
		},
		&FreeRequest{DevPtr: 0x1000},
		&SyncRequest{},
		&FinalizeRequest{},
	}
	for _, req := range reqs {
		enc := req.Encode(nil)
		if len(enc) != req.WireSize() {
			t.Fatalf("%T: encoded %d bytes, WireSize says %d", req, len(enc), req.WireSize())
		}
		dec, err := DecodeRequest(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", req, err)
		}
		if !reflect.DeepEqual(normalize(dec), normalize(req)) {
			t.Fatalf("%T round trip mismatch:\n got %#v\nwant %#v", req, dec, req)
		}
	}
}

// normalize maps empty slices to nil so DeepEqual compares semantics, not
// allocation artifacts.
func normalize(r Request) Request {
	switch m := r.(type) {
	case *MemcpyToDeviceRequest:
		c := *m
		if len(c.Data) == 0 {
			c.Data = nil
		}
		return &c
	case *LaunchRequest:
		c := *m
		if len(c.Params) == 0 {
			c.Params = nil
		}
		return &c
	}
	return r
}

func TestResponseRoundTrips(t *testing.T) {
	{
		r := &MallocResponse{Err: 0, DevPtr: 0x40}
		got, err := DecodeMallocResponse(r.Encode(nil))
		if err != nil || *got != *r {
			t.Fatalf("malloc response: %v, %+v", err, got)
		}
	}
	{
		// cudaMemcpy to device, cudaLaunch, cudaFree and synchronize are
		// all answered by the bare result code.
		r := &CodeResponse{Err: 2}
		got, err := DecodeCodeResponse(r.Encode(nil))
		if err != nil || got != r.Err {
			t.Fatalf("result-code response: %v, %d", err, got)
		}
		if _, err := DecodeCodeResponse(r.Encode(nil)[:3]); err != ErrShortMessage {
			t.Fatalf("short result-code response: %v", err)
		}
	}
	{
		r := &MemcpyToHostResponse{Data: []byte{5, 6}, Err: 0}
		got := make([]byte, len(r.Data))
		code, err := DecodeMemcpyToHostResponseInto(r.Encode(nil), got)
		if err != nil || code != 0 || !bytes.Equal(got, r.Data) {
			t.Fatalf("memcpy-to-host response: %v, %d, %x", err, code, got)
		}
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	if _, err := DecodeRequest(nil); err == nil {
		t.Fatal("want error for empty request")
	}
	if _, err := DecodeRequest([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("want error for unknown op")
	}
	// Memcpy with wrong kind.
	bad := (&MemcpyToDeviceRequest{Data: []byte{1}}).Encode(nil)
	bad[16] = 9 // corrupt the kind field
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("want error for bad memcpy kind")
	}
	// Memcpy with inconsistent size.
	bad = (&MemcpyToDeviceRequest{Data: []byte{1, 2, 3}}).Encode(nil)
	bad[12] = 99
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("want error for inconsistent memcpy size")
	}
	// Launch with corrupted params offset.
	badLaunch := (&LaunchRequest{Name: "k"}).Encode(nil)
	badLaunch[8] = 200
	if _, err := DecodeRequest(badLaunch); err == nil {
		t.Fatal("want error for out-of-range params offset")
	}
	// Launch whose name region lacks the NUL.
	badLaunch = (&LaunchRequest{Name: "kk", Params: []byte{7}}).Encode(nil)
	badLaunch[8] = 2 // points inside the name, where there is no NUL
	if _, err := DecodeRequest(badLaunch); err == nil {
		t.Fatal("want error for missing NUL terminator")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&MallocRequest{Size: 123},
		&MemcpyToDeviceRequest{Dst: 1, Data: bytes.Repeat([]byte{0xab}, 1000)},
		&FinalizeRequest{},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range msgs {
		payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, m.Encode(nil)) {
			t.Fatalf("%T: frame payload mismatch", m)
		}
	}
}

func TestReadFrameRejectsHugeHeader(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // ~4 GiB declared length
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("want error for oversized frame header")
	}
}

func TestReadFrameShortStream(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{10, 0, 0, 0, 1, 2}) // declares 10, delivers 2
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("want error for truncated frame body")
	}
}

func TestOpStrings(t *testing.T) {
	for op := OpInit; op < OpStreamCreate; op++ {
		if s := op.String(); s == "" || s[0] == 'O' && s[1] == 'p' && op != OpInit {
			t.Fatalf("op %d has placeholder name %q", op, s)
		}
	}
	if Op(99).String() != "Op(99)" {
		t.Fatal("unknown op should format numerically")
	}
}

// Property: every memcpy-to-device payload survives a wire round trip.
func TestMemcpyRoundTripProperty(t *testing.T) {
	f := func(dst, src uint32, data []byte) bool {
		req := &MemcpyToDeviceRequest{Dst: dst, Src: src, Data: data}
		dec, err := DecodeRequest(req.Encode(nil))
		if err != nil {
			return false
		}
		got, ok := dec.(*MemcpyToDeviceRequest)
		return ok && got.Dst == dst && got.Src == src && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: launch requests with arbitrary printable names and parameter
// blobs round trip, and the wire size always equals 44 + len(name) + 1 +
// len(params), i.e. Table I's "x + 44".
func TestLaunchRoundTripProperty(t *testing.T) {
	f := func(nameBytes []byte, params []byte, shared uint32) bool {
		name := make([]byte, 0, len(nameBytes))
		for _, b := range nameBytes {
			if b == 0 {
				b = '_' // kernel names cannot contain NUL
			}
			name = append(name, b)
		}
		req := &LaunchRequest{Name: string(name), Params: params, SharedSize: shared}
		if req.WireSize() != 44+len(name)+1+len(params) {
			return false
		}
		dec, err := DecodeRequest(req.Encode(nil))
		if err != nil {
			return false
		}
		got, ok := dec.(*LaunchRequest)
		return ok && got.Name == string(name) && bytes.Equal(got.Params, params) &&
			got.SharedSize == shared
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: frames written back to back are read back intact in order.
func TestFrameSequenceProperty(t *testing.T) {
	f := func(blobs [][]byte) bool {
		var buf bytes.Buffer
		for _, b := range blobs {
			if err := WriteFrame(&buf, &MemcpyToDeviceRequest{Data: b}); err != nil {
				return false
			}
		}
		for _, b := range blobs {
			payload, err := ReadFrame(&buf)
			if err != nil {
				return false
			}
			dec, err := DecodeRequest(payload)
			if err != nil {
				return false
			}
			if !bytes.Equal(dec.(*MemcpyToDeviceRequest).Data, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodedLaunchAliasesFrame pins the lifetime rule launch now shares
// with memcpy: Params is a view of the frame, not a copy, at both ends of
// the parameters-offset range; the name is copied out and survives the
// frame's reuse.
func TestDecodedLaunchAliasesFrame(t *testing.T) {
	for _, in := range []*LaunchRequest{
		{Name: "sgemmNN", Params: []byte{1, 2, 3, 4}, Stream: 3},
		{Name: "", Params: []byte{9}},
		{Name: "fft512"},
	} {
		frame := in.Encode(nil)
		req, err := DecodeRequest(frame)
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		got := req.(*LaunchRequest)
		if got.Name != in.Name || !bytes.Equal(got.Params, in.Params) || got.Stream != in.Stream {
			t.Fatalf("decoded %+v, want %+v", got, in)
		}
		for i := range frame {
			frame[i] = 0xFF
		}
		if got.Name != in.Name {
			t.Fatalf("name %q changed with the frame", got.Name)
		}
		for _, b := range got.Params {
			if b != 0xFF {
				t.Fatalf("Params %x is a copy; it must alias the frame", got.Params)
			}
		}
	}
}

// TestLaunchDecodeAllocationGate: decoding a launch costs the request
// struct and the kernel-name string, nothing per parameter byte. Decoding a
// batch costs that per launch plus the batch's own three objects.
func TestLaunchDecodeAllocationGate(t *testing.T) {
	launch := &LaunchRequest{
		BlockDim: [3]uint32{16, 16, 0}, GridDim: [2]uint32{1, 1}, Stream: 1,
		Name: "sgemmNN", Params: make([]byte, 16),
	}
	wire := launch.Encode(nil)
	var derr error
	decode := func(b []byte) func() {
		return func() {
			if _, err := DecodeRequest(b); err != nil {
				derr = err
			}
		}
	}
	if got := testing.AllocsPerRun(200, decode(wire)); got > 2 {
		t.Errorf("DecodeRequest of a launch allocates %.0f times, want <= 2", got)
	}
	const launches = 24
	batch := &BatchRequest{Seq: 1}
	for i := 0; i < launches; i++ {
		batch.Subs = append(batch.Subs, wire)
	}
	if got := testing.AllocsPerRun(200, decode(batch.Encode(nil))); got > 2*launches+3 {
		t.Errorf("DecodeRequest of a %d-launch batch allocates %.0f times, want <= %d", launches, got, 2*launches+3)
	}
	// Through a Decoder both land in storage it already has: a launch in
	// its slot, under the name the last launch had; a batch's in their slab.
	var d Decoder
	for _, frame := range [][]byte{wire, batch.Encode(nil)} {
		if got := testing.AllocsPerRun(200, func() {
			if _, err := d.Decode(frame); err != nil {
				derr = err
			}
		}); got != 0 {
			t.Errorf("a Decoder allocates %.0f times on a %d-byte frame it has seen, want 0", got, len(frame))
		}
	}
	if derr != nil {
		t.Fatal(derr)
	}
}
