package rcuda

import (
	"testing"

	"rcuda/internal/protocol"
	"rcuda/internal/sched"
)

// TestOpTraitsMatchParent holds what every layer asks about an operation —
// may the retry engine re-send it, may it ride in a batch, does it wait for
// the device scheduler and in which cost bucket, with how many bytes — to
// the answers the separate classifiers gave before they became columns of
// the op table: opIdempotent (retry.go), protocol.BatchableOp,
// classifySchedOp (sched.go). The rows were printed by running those three
// over one sample request per op at that commit. The table and the checks
// are not to change with the op table; only opTraits, the adapter in
// op_traits_adapter_test.go that reaches the classification, does. The one
// column added since, closes, came with the table's own column: exactly the
// five synchronization and completion queries may close a batch frame.
func TestOpTraitsMatchParent(t *testing.T) {
	const (
		launch = sched.KindLaunch
		cp     = sched.KindCopy
		sync   = sched.KindSync
		batch  = sched.KindBatch
		other  = sched.KindOther
	)
	rows := []struct {
		code       uint32
		req        protocol.Request // nil: the op has no request message
		idempotent bool
		batchable  bool
		closes     bool
		gated      bool
		kind       sched.OpKind // meaningful when gated
		bytes      int
	}{
		{0, nil, false, false, false, false, 0, 0},
		{1, &protocol.MallocRequest{Size: 64}, false, false, false, true, other, 0},
		{2, &protocol.MemcpyToDeviceRequest{Dst: 1, Data: make([]byte, 48)}, true, false, false, true, cp, 48},
		{3, &protocol.MemcpyToHostRequest{Src: 2, Size: 80}, true, false, false, true, cp, 80},
		{4, &protocol.LaunchRequest{Name: "sgemmNN", Params: []byte{1, 2, 3, 4}}, false, true, false, true, launch, 0},
		{5, &protocol.FreeRequest{DevPtr: 3}, false, false, false, true, other, 0},
		{6, &protocol.SyncRequest{}, true, false, true, true, sync, 0},
		{7, &protocol.FinalizeRequest{}, false, false, false, false, 0, 0},
		{8, &protocol.StreamCreateRequest{}, false, false, false, true, other, 0},
		{9, &protocol.StreamOpRequest{Code: protocol.OpStreamDestroy, Stream: 1}, false, false, false, true, other, 0},
		{10, &protocol.StreamOpRequest{Code: protocol.OpStreamSynchronize, Stream: 1}, true, false, true, true, other, 0},
		{11, &protocol.MemcpyToDeviceAsyncRequest{Dst: 1, Stream: 1, Data: make([]byte, 24)}, false, true, false, true, cp, 24},
		{12, &protocol.MemcpyToHostAsyncRequest{Src: 1, Size: 40, Stream: 1}, false, false, false, true, cp, 40},
		{13, &protocol.EventCreateRequest{}, false, false, false, true, other, 0},
		{14, &protocol.EventRecordRequest{Event: 1, Stream: 1}, false, true, false, true, other, 0},
		{15, &protocol.EventOpRequest{Code: protocol.OpEventSynchronize, Event: 1}, true, false, true, true, other, 0},
		{16, &protocol.EventElapsedRequest{Start: 1, End: 2}, true, false, false, true, other, 0},
		{17, &protocol.EventOpRequest{Code: protocol.OpEventDestroy, Event: 1}, false, false, false, true, other, 0},
		{18, &protocol.GetDeviceCountRequest{}, true, false, false, false, 0, 0},
		{19, &protocol.SetDeviceRequest{Device: 1}, true, false, false, false, 0, 0},
		{20, &protocol.GetDevicePropertiesRequest{}, true, false, false, false, 0, 0},
		{21, &protocol.MemsetRequest{DevPtr: 1, Value: 2, Size: 96}, true, true, false, true, cp, 96},
		{22, &protocol.MemcpyD2DRequest{Dst: 1, Src: 2, Size: 112}, false, false, false, true, cp, 112},
		{23, &protocol.StreamOpRequest{Code: protocol.OpStreamQuery, Stream: 1}, true, false, true, true, other, 0},
		{24, &protocol.EventOpRequest{Code: protocol.OpEventQuery, Event: 1}, true, false, true, true, other, 0},
		{25, &protocol.MemcpyStreamBeginRequest{Ptr: 1, Total: 4096, Kind: protocol.KindHostToDevice, ChunkSize: 256}, false, false, false, true, cp, 4096},
		{26, &protocol.Chunk{Kind: protocol.OpMemcpyStreamChunk, Seq: 2, Data: make([]byte, 8)}, false, false, false, true, other, 0},
		{27, &protocol.MemcpyStreamEndRequest{Chunks: 4}, false, false, false, true, other, 0},
		{28, &protocol.SessionHelloRequest{}, true, false, false, false, 0, 0},
		{29, &protocol.ReattachRequest{Session: 7}, false, false, false, false, 0, 0},
		{30, &protocol.StatsQueryRequest{}, true, false, false, false, 0, 0},
		{31, &protocol.BatchRequest{Seq: 1}, true, false, false, true, batch, 0},
		{32, &protocol.MigrateBeginRequest{Total: 64, ChunkSize: 16}, false, false, false, true, other, 0},
		{33, &protocol.Chunk{Kind: protocol.OpMigrateChunk, Seq: 2, Data: make([]byte, 8)}, false, false, false, true, other, 0},
		{34, &protocol.MigrateCommitRequest{Chunks: 4, Digest: 1}, false, false, false, true, other, 0},
		{35, &protocol.SessionRestoreRequest{Session: 9}, false, false, false, true, other, 0},
		// Codes past the declared space: never retried, never batched.
		{36, nil, false, false, false, false, 0, 0},
		{37, nil, false, false, false, false, 0, 0},
		{38, nil, false, false, false, false, 0, 0},
	}
	for _, row := range rows {
		op := protocol.Op(row.code)
		if row.req != nil && row.req.Op() != op {
			t.Fatalf("row %d holds a sample of op %d", row.code, uint32(row.req.Op()))
		}
		idempotent, batchable, closes, kind, bytes, gated := opTraits(op, row.req)
		if idempotent != row.idempotent {
			t.Errorf("%v: idempotent = %v, the retry engine had %v", op, idempotent, row.idempotent)
		}
		if batchable != row.batchable {
			t.Errorf("%v: batchable = %v, the batch decoder had %v", op, batchable, row.batchable)
		}
		if closes != row.closes {
			t.Errorf("%v: closes = %v, want %v", op, closes, row.closes)
		}
		if row.req == nil {
			continue
		}
		if gated != row.gated || (gated && (kind != row.kind || bytes != row.bytes)) {
			t.Errorf("%v: scheduler sees (kind %d, %d bytes, gated %v), had (kind %d, %d bytes, gated %v)",
				op, kind, bytes, gated, row.kind, row.bytes, row.gated)
		}
	}
}
