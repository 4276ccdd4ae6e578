package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// tableSamples is one well-formed request per row of the op table: the
// samples the verdict pin froze (ops_pin_test.go), then one for every op
// declared since.
func tableSamples() map[Op]Request {
	samples := make(map[Op]Request)
	for _, r := range pinSamples() {
		samples[r.Op()] = r
	}
	return samples
}

// TestOpTableTotal is what the wiremsg analyzer used to prove by following
// DecodeRequest's call chain and the name maps: every declared op code is
// named, decodes, decodes to a request that carries the same code and
// re-encodes to the same bytes, and a fixed-length row accepts that length
// only. A new op without a complete row, or a row whose decoder builds
// another op's request, fails here.
func TestOpTableTotal(t *testing.T) {
	samples := tableSamples()
	for op := Op(0); op < opCount; op++ {
		row := ops[op]
		if row.name == "" || strings.HasPrefix(op.String(), "Op(") {
			t.Errorf("op %d has no name", uint32(op))
		}
		if op == OpInit {
			// Positional: never a leading function identifier.
			if _, err := DecodeRequest(putU32(nil, uint32(op))); !errors.Is(err, ErrBadOp) || row.decode != nil {
				t.Errorf("%v decodes as a request: %v", op, err)
			}
			continue
		}
		if (row.decode == nil) != (op == OpBatch) {
			t.Errorf("%v: row decoder nil = %v", op, row.decode == nil)
		}
		sample := samples[op]
		if sample == nil {
			t.Errorf("%v has no sample request; add one to tableSamples", op)
			continue
		}
		enc := sample.Encode(nil)
		req, err := DecodeRequest(enc)
		if err != nil {
			t.Errorf("%v: sample does not decode: %v", op, err)
			continue
		}
		if req.Op() != op {
			t.Errorf("%v decodes to a request of op %v", op, req.Op())
		}
		if got, want := fmt.Sprintf("%T", req), fmt.Sprintf("%T", sample); got != want {
			t.Errorf("%v decodes to %s, sample is %s", op, got, want)
		}
		if !bytes.Equal(req.Encode(nil), enc) || req.WireSize() != len(enc) {
			t.Errorf("%v: decoded sample does not re-encode to its %d bytes", op, len(enc))
		}
		if _, sized := req.(interface{ CopyBytes() int }); sized != (row.sched == SchedCopy) {
			t.Errorf("%v: scheduled as a copy = %v, request reports copy bytes = %v", op, row.sched == SchedCopy, sized)
		}
		if row.size == 0 {
			continue
		}
		if row.size != len(enc) {
			t.Errorf("%v: row says %d bytes, sample encodes to %d", op, row.size, len(enc))
		}
		for _, frame := range [][]byte{enc[:len(enc)-1], append(enc[:len(enc):len(enc)], 0)} {
			if _, err := DecodeRequest(frame); !errors.Is(err, ErrShortMessage) {
				t.Errorf("%v: %d-byte frame for a %d-byte request: %v, want ErrShortMessage", op, len(frame), row.size, err)
			}
		}
	}
}

// TestEveryOpHasADeliberatePhase pins the phase column row by row, so that
// an op added without one — the zero value is PhaseInit — fails rather than
// being filed under initialization by accident. The paper's eight keep the
// phases Figure 2 draws them under; everything since had been lumped into
// "Finalization" by a default case (DESIGN.md §21 argues each choice).
func TestEveryOpHasADeliberatePhase(t *testing.T) {
	phases := map[Op]Phase{
		OpInit:              PhaseInit,
		OpMalloc:            PhaseAlloc,
		OpMemcpyToDevice:    PhaseInput,
		OpMemcpyToHost:      PhaseOutput,
		OpLaunch:            PhaseKernel,
		OpFree:              PhaseRelease,
		OpDeviceSynchronize: PhaseKernel,
		OpFinalize:          PhaseFinalize,

		OpStreamCreate:        PhaseAlloc,
		OpStreamDestroy:       PhaseRelease,
		OpStreamSynchronize:   PhaseKernel,
		OpMemcpyToDeviceAsync: PhaseInput,
		OpMemcpyToHostAsync:   PhaseOutput,
		OpEventCreate:         PhaseAlloc,
		OpEventRecord:         PhaseKernel,
		OpEventSynchronize:    PhaseKernel,
		OpEventElapsed:        PhaseKernel,
		OpEventDestroy:        PhaseRelease,

		OpGetDeviceCount:       PhaseInit,
		OpSetDevice:            PhaseInit,
		OpGetDeviceProperties:  PhaseInit,
		OpMemset:               PhaseInput,
		OpMemcpyDeviceToDevice: PhaseKernel,
		OpStreamQuery:          PhaseKernel,
		OpEventQuery:           PhaseKernel,

		OpMemcpyStreamBegin: PhaseInput,
		OpMemcpyStreamChunk: PhaseInput,
		OpMemcpyStreamEnd:   PhaseInput,

		OpSessionHello:    PhaseInit,
		OpSessionReattach: PhaseInit,
		OpStatsQuery:      PhaseInit,
		OpBatch:           PhaseKernel,
		OpMigrateBegin:    PhaseInit,
		OpMigrateChunk:    PhaseInit,
		OpMigrateCommit:   PhaseInit,
		OpSessionRestore:  PhaseInit,
	}
	for op := Op(0); op < opCount; op++ {
		want, pinned := phases[op]
		if !pinned {
			t.Errorf("%v has no phase pinned here; choose one deliberately", op)
			continue
		}
		if got := op.Phase(); got != want {
			t.Errorf("%v is filed under %q, want %q", op, got, want)
		}
	}
	// A code outside the table still lands where the old default put it.
	if got := opCount.Phase(); got != PhaseFinalize {
		t.Errorf("undeclared op filed under %q", got)
	}
}

// TestDecodeRequestAllocations holds the table-driven DecodeRequest to what
// the chained switches allocated at the commit before it (measured there):
// nothing for an empty request, the request struct alone for a fixed-size
// one — first row of the table or last.
func TestDecodeRequestAllocations(t *testing.T) {
	for _, tc := range []struct {
		req  Request
		want float64
	}{
		{&SyncRequest{}, 0},
		{&MallocRequest{Size: 8}, 1},
		{&MigrateCommitRequest{Chunks: 1, Digest: 2}, 1},
	} {
		wire := tc.req.Encode(nil)
		var sink Request
		var derr error
		got := testing.AllocsPerRun(1000, func() { sink, derr = DecodeRequest(wire) })
		if derr != nil || sink == nil {
			t.Fatalf("%v: %v", tc.req.Op(), derr)
		}
		if got != tc.want {
			t.Errorf("DecodeRequest of %v allocates %.0f times, %.0f before the op table", tc.req.Op(), got, tc.want)
		}
	}
}
