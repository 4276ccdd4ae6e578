package protocol

import (
	"bytes"
	"strings"
	"testing"
)

func TestBatchOpNames(t *testing.T) {
	if got, want := OpBatch.String(), "batched calls"; got != want {
		t.Errorf("Op(%d).String() = %q, want %q", uint32(OpBatch), got, want)
	}
}

func batchOf(t *testing.T, seq uint64, subs ...Request) *BatchRequest {
	t.Helper()
	b := &BatchRequest{Seq: seq}
	for _, sub := range subs {
		b.Subs = append(b.Subs, sub.Encode(nil))
	}
	return b
}

func TestBatchRequestRoundTrip(t *testing.T) {
	req := batchOf(t, 7,
		&MemcpyToDeviceAsyncRequest{Dst: 16, Stream: 1, Data: []byte{1, 2, 3, 4, 5}},
		&LaunchRequest{Name: "sgemmNN", Params: []byte{9, 9, 9, 9}, Stream: 1},
		&EventRecordRequest{Event: 2, Stream: 1},
		&MemsetRequest{DevPtr: 32, Value: 0, Size: 64},
	)
	raw := req.Encode(nil)
	if len(raw) != req.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(raw), req.WireSize())
	}
	decoded, err := DecodeRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := decoded.(*BatchRequest)
	if !ok {
		t.Fatalf("decoded %#v", decoded)
	}
	if b.Seq != 7 || len(b.Subs) != 4 || len(b.Decoded) != 4 {
		t.Fatalf("decoded seq=%d with %d subs, %d parsed", b.Seq, len(b.Subs), len(b.Decoded))
	}
	wantOps := []Op{OpMemcpyToDeviceAsync, OpLaunch, OpEventRecord, OpMemset}
	for i, sub := range b.Decoded {
		if sub.Op() != wantOps[i] {
			t.Errorf("sub-op %d: got %v, want %v", i, sub.Op(), wantOps[i])
		}
	}
	if cp, ok := b.Decoded[0].(*MemcpyToDeviceAsyncRequest); !ok || !bytes.Equal(cp.Data, []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("memcpy sub-op payload lost: %#v", b.Decoded[0])
	}
	if enc := b.Encode(nil); !bytes.Equal(enc, raw) {
		t.Fatalf("re-encode mismatch:\n in  %x\n out %x", raw, enc)
	}
}

// Requests parses lazily for locally built batches (the client path), and
// returns the decoder's slice verbatim for wire-parsed ones.
func TestBatchRequestsLazyDecode(t *testing.T) {
	req := batchOf(t, 1, &EventRecordRequest{Event: 3})
	subs, err := req.Requests()
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].(*EventRecordRequest).Event != 3 {
		t.Fatalf("parsed %#v", subs)
	}
	req.Subs = [][]byte{{1, 2}} // corrupt raw form, Decoded still wins
	req.Decoded = subs
	again, err := req.Requests()
	if err != nil || len(again) != 1 {
		t.Fatalf("Requests with Decoded set: %v, %v", again, err)
	}
}

func TestBatchDecodeRejections(t *testing.T) {
	good := batchOf(t, 5,
		&LaunchRequest{Name: "sgemmNN", Params: []byte{1, 2, 3, 4}},
		&EventRecordRequest{Event: 1},
	).Encode(nil)
	if _, err := DecodeRequest(good); err != nil {
		t.Fatalf("control frame rejected: %v", err)
	}

	cases := []struct {
		name string
		raw  []byte
		want string
	}{
		{"truncated header", good[:12], "too short"},
		{"truncated sub-op header", good[:17], "truncated in sub-op"},
		{"truncated sub-op payload", good[:len(good)-2], "declares"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "trailing"},
		{"empty batch", (&BatchRequest{Seq: 9}).Encode(nil), "empty batch"},
		{"non-batchable sub-op", batchOf(t, 2, &MemcpyToHostRequest{Src: 1, Size: 4}).Encode(nil), "not batchable"},
		{"nested batch", batchOf(t, 3, batchOf(t, 4, &EventRecordRequest{})).Encode(nil), "not batchable"},
		{"closing sub-op alone", batchOf(t, 2, &SyncRequest{}).Encode(nil), "not batchable"},
		{"closing sub-op not last", batchOf(t, 2, &EventRecordRequest{}, &SyncRequest{}, &EventRecordRequest{}).Encode(nil), "not batchable"},
		{"two closing sub-ops", batchOf(t, 2, &EventRecordRequest{}, &SyncRequest{}, &EventOpRequest{Code: OpEventQuery}).Encode(nil), "not batchable"},
		{"destroy closing", batchOf(t, 2, &EventRecordRequest{}, &StreamOpRequest{Code: OpStreamDestroy, Stream: 1}).Encode(nil), "not batchable"},
		{"free closing", batchOf(t, 2, &EventRecordRequest{}, &FreeRequest{DevPtr: 1}).Encode(nil), "not batchable"},
		{"undecodable sub-op", func() []byte {
			b := &BatchRequest{Seq: 1, Subs: [][]byte{{0xff, 0xff, 0xff, 0xff}}}
			return b.Encode(nil)
		}(), "sub-op 0"},
	}
	for _, tc := range cases {
		if _, err := DecodeRequest(tc.raw); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// A frame declaring more sub-ops than MaxBatchOps must be rejected
	// before any allocation proportional to the declared count.
	huge := append([]byte(nil), good[:16]...)
	putU32(huge[12:12:16], 1<<20)
	if _, err := DecodeRequest(huge); err == nil || !strings.Contains(err.Error(), "max") {
		t.Errorf("oversized count: %v", err)
	}
}

// TestBatchClosingSubOp: each of the five synchronization and completion
// queries may close a frame of batchable sub-ops, and decodes as itself.
func TestBatchClosingSubOp(t *testing.T) {
	for _, closing := range []Request{
		&SyncRequest{},
		&StreamOpRequest{Code: OpStreamSynchronize, Stream: 1},
		&StreamOpRequest{Code: OpStreamQuery, Stream: 1},
		&EventOpRequest{Code: OpEventSynchronize, Event: 2},
		&EventOpRequest{Code: OpEventQuery, Event: 2},
	} {
		raw := batchOf(t, 4, &LaunchRequest{Name: "sgemmNN", Stream: 1}, &EventRecordRequest{Event: 2, Stream: 1}, closing).Encode(nil)
		for name, decode := range map[string]func([]byte) (Request, error){"DecodeRequest": DecodeRequest, "Decoder": new(Decoder).Decode} {
			req, err := decode(raw)
			if err != nil {
				t.Fatalf("%s: %v closing a frame: %v", name, closing.Op(), err)
			}
			b := req.(*BatchRequest)
			last := b.Decoded[len(b.Decoded)-1]
			if last.Op() != closing.Op() || !bytes.Equal(last.Encode(nil), closing.Encode(nil)) {
				t.Fatalf("%s: frame closed by %v decodes to %#v", name, closing.Op(), last)
			}
			if enc := b.Encode(nil); !bytes.Equal(enc, raw) {
				t.Fatalf("%s: re-encode mismatch", name)
			}
		}
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	resp := &BatchResponse{Err: 11, Codes: []uint32{0, 11, 0}}
	raw := resp.Encode(nil)
	if len(raw) != resp.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(raw), resp.WireSize())
	}
	back, err := DecodeBatchResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Err != 11 || len(back.Codes) != 3 || back.Codes[1] != 11 {
		t.Fatalf("round trip %+v -> %+v", resp, back)
	}
	closed := (&BatchResponse{Err: 34, Codes: []uint32{0, 0, 34}}).Encode(nil)
	if first, last, n, err := BatchResponseHead(closed); err != nil || first != 34 || last != 34 || n != 3 {
		t.Fatalf("head of a frame whose closing sub-op failed: %d, %d, %d, %v", first, last, n, err)
	}
	if first, last, n, err := BatchResponseHead(raw); err != nil || first != 11 || last != 0 || n != 3 {
		t.Fatalf("head of a frame whose closing sub-op never ran: %d, %d, %d, %v", first, last, n, err)
	}

	if _, err := DecodeBatchResponse(raw[:6]); err == nil {
		t.Error("short response accepted")
	}
	if _, err := DecodeBatchResponse(raw[:len(raw)-4]); err == nil {
		t.Error("count/payload mismatch accepted")
	}
	big := (&BatchResponse{Codes: make([]uint32, 4)}).Encode(nil)
	putU32(big[4:4:8], MaxBatchOps+1)
	if _, err := DecodeBatchResponse(big); err == nil {
		t.Error("oversized code count accepted")
	}
}

func TestBatchableOp(t *testing.T) {
	for _, op := range []Op{OpLaunch, OpMemcpyToDeviceAsync, OpEventRecord, OpMemset} {
		if !BatchableOp(op) {
			t.Errorf("%v should be batchable", op)
		}
		if ClosesBatch(op) {
			t.Errorf("%v is batchable and must not close a frame", op)
		}
	}
	for _, op := range []Op{OpDeviceSynchronize, OpStreamSynchronize, OpEventSynchronize, OpStreamQuery, OpEventQuery} {
		if !ClosesBatch(op) {
			t.Errorf("%v should close a frame", op)
		}
	}
	// Everything returning data, handles, or touching session state stays
	// a standalone exchange.
	for _, op := range []Op{
		OpMalloc, OpMemcpyToDevice, OpMemcpyToHost, OpFree, OpDeviceSynchronize,
		OpFinalize, OpStreamCreate, OpStreamSynchronize, OpMemcpyToHostAsync,
		OpEventCreate, OpEventSynchronize, OpEventElapsed, OpGetDeviceCount,
		OpSetDevice, OpGetDeviceProperties, OpMemcpyDeviceToDevice, OpSessionHello,
		OpSessionReattach, OpStatsQuery, OpBatch,
	} {
		if BatchableOp(op) {
			t.Errorf("%v must not be batchable", op)
		}
	}
}
