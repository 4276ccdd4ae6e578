package protocol

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The tests in this file pin what the wire sees of the operation space —
// each code's number and name, and DecodeRequest's verdict on a grid of
// frames — as it stood before the per-file const blocks and the chained
// decode functions became one op table. They were written, and were green,
// at that commit; they are not to change with the table.

// pinnedOpCount is the number of op codes, 0 through 35, declared when
// these tests were written.
const pinnedOpCount = 36

// TestOpCodesPinned holds every op code to its wire value and its name:
// re-declaring the codes in one block must not renumber the protocol, and
// Op.String must keep printing what traces and reports print today.
func TestOpCodesPinned(t *testing.T) {
	pinned := []struct {
		op   Op
		code uint32
		name string
	}{
		{OpInit, 0, "Initialization"},
		{OpMalloc, 1, "cudaMalloc"},
		{OpMemcpyToDevice, 2, "cudaMemcpy (to device)"},
		{OpMemcpyToHost, 3, "cudaMemcpy (to host)"},
		{OpLaunch, 4, "cudaLaunch"},
		{OpFree, 5, "cudaFree"},
		{OpDeviceSynchronize, 6, "cudaDeviceSynchronize"},
		{OpFinalize, 7, "Finalization"},
		{OpStreamCreate, 8, "cudaStreamCreate"},
		{OpStreamDestroy, 9, "cudaStreamDestroy"},
		{OpStreamSynchronize, 10, "cudaStreamSynchronize"},
		{OpMemcpyToDeviceAsync, 11, "cudaMemcpyAsync (to device)"},
		{OpMemcpyToHostAsync, 12, "cudaMemcpyAsync (to host)"},
		{OpEventCreate, 13, "cudaEventCreate"},
		{OpEventRecord, 14, "cudaEventRecord"},
		{OpEventSynchronize, 15, "cudaEventSynchronize"},
		{OpEventElapsed, 16, "cudaEventElapsedTime"},
		{OpEventDestroy, 17, "cudaEventDestroy"},
		{OpGetDeviceCount, 18, "cudaGetDeviceCount"},
		{OpSetDevice, 19, "cudaSetDevice"},
		{OpGetDeviceProperties, 20, "cudaGetDeviceProperties"},
		{OpMemset, 21, "cudaMemset"},
		{OpMemcpyDeviceToDevice, 22, "cudaMemcpy (device to device)"},
		{OpStreamQuery, 23, "cudaStreamQuery"},
		{OpEventQuery, 24, "cudaEventQuery"},
		{OpMemcpyStreamBegin, 25, "cudaMemcpy (stream begin)"},
		{OpMemcpyStreamChunk, 26, "cudaMemcpy (stream chunk)"},
		{OpMemcpyStreamEnd, 27, "cudaMemcpy (stream end)"},
		{OpSessionHello, 28, "session hello"},
		{OpSessionReattach, 29, "session reattach"},
		{OpStatsQuery, 30, "stats query"},
		{OpBatch, 31, "batched calls"},
		{OpMigrateBegin, 32, "rcudaMigrate (begin)"},
		{OpMigrateChunk, 33, "rcudaMigrate (chunk)"},
		{OpMigrateCommit, 34, "rcudaMigrate (commit)"},
		{OpSessionRestore, 35, "rcudaSessionRestore"},
	}
	if len(pinned) != pinnedOpCount {
		t.Fatalf("%d ops pinned, want %d", len(pinned), pinnedOpCount)
	}
	for _, p := range pinned {
		if uint32(p.op) != p.code {
			t.Errorf("%s is op code %d on the wire, pinned at %d", p.name, uint32(p.op), p.code)
		}
		if got := p.op.String(); got != p.name {
			t.Errorf("Op(%d).String() = %q, pinned as %q", p.code, got, p.name)
		}
	}
	for code := uint32(pinnedOpCount); code < pinnedOpCount+3; code++ {
		if got, want := Op(code).String(), fmt.Sprintf("Op(%d)", code); got != want {
			t.Errorf("undeclared Op(%d).String() = %q, want %q", code, got, want)
		}
	}
}

// pinSamples is one well-formed request per op code that travels as a
// leading function identifier, each at most 64 bytes encoded.
func pinSamples() []Request {
	return []Request{
		&MallocRequest{Size: 64},
		&MemcpyToDeviceRequest{Dst: 1, Src: 5, Data: []byte{1, 2, 3}},
		&MemcpyToHostRequest{Dst: 6, Src: 2, Size: 8},
		&LaunchRequest{BlockDim: [3]uint32{16, 16, 1}, GridDim: [2]uint32{2, 3}, Stream: 1, Name: "sgemmNN", Params: []byte{1, 2, 3, 4}},
		&FreeRequest{DevPtr: 3},
		&SyncRequest{},
		&FinalizeRequest{},
		&StreamCreateRequest{},
		&StreamOpRequest{Code: OpStreamDestroy, Stream: 1},
		&StreamOpRequest{Code: OpStreamSynchronize, Stream: 2},
		&MemcpyToDeviceAsyncRequest{Dst: 1, Src: 4, Stream: 1, Data: []byte{9}},
		&MemcpyToHostAsyncRequest{Dst: 3, Src: 1, Size: 4, Stream: 1},
		&EventCreateRequest{},
		&EventRecordRequest{Event: 1, Stream: 1},
		&EventOpRequest{Code: OpEventSynchronize, Event: 1},
		&EventElapsedRequest{Start: 1, End: 2},
		&EventOpRequest{Code: OpEventDestroy, Event: 2},
		&GetDeviceCountRequest{},
		&SetDeviceRequest{Device: 1},
		&GetDevicePropertiesRequest{},
		&MemsetRequest{DevPtr: 1, Value: 2, Size: 3},
		&MemcpyD2DRequest{Dst: 1, Src: 2, Size: 3},
		&StreamOpRequest{Code: OpStreamQuery, Stream: 3},
		&EventOpRequest{Code: OpEventQuery, Event: 3},
		&MemcpyStreamBeginRequest{Ptr: 1, Total: 64, Kind: KindHostToDevice, ChunkSize: 16},
		&Chunk{Kind: OpMemcpyStreamChunk, Seq: 2, Data: []byte{1, 2, 3}},
		&MemcpyStreamEndRequest{Chunks: 4},
		&SessionHelloRequest{Class: SchedClassRealtime, Weight: 8},
		&ReattachRequest{Session: 7},
		&StatsQueryRequest{},
		&BatchRequest{Seq: 1, Subs: [][]byte{(&EventRecordRequest{Event: 1, Stream: 1}).Encode(nil)}},
		&MigrateBeginRequest{Total: 64, ChunkSize: 16},
		&Chunk{Kind: OpMigrateChunk, Seq: 2, Data: []byte{1, 2, 3}},
		&MigrateCommitRequest{Chunks: 4, Digest: 0xfeedface},
		&SessionRestoreRequest{Session: 9},
	}
}

var captureVerdicts = flag.Bool("capture-verdicts", false,
	"rewrite testdata/decode_verdicts.golden from this commit's DecodeRequest (only at a commit whose decoder is the reference)")

// decodeVerdicts runs decode over every op code from 0 to two past
// the declared space, at every frame length from 0 to 64, the frame filled
// with 0x00, with 0xFF, or with the op's sample (cut short, or followed by
// zeros) behind the op code. One line per code and fill: a verdict letter
// per length — A accepted, s rejected as ErrShortMessage, b rejected as
// ErrBadOp, x rejected otherwise — then the concrete types accepted.
func decodeVerdicts(t *testing.T, decode func([]byte) (Request, error)) []string {
	const maxLen = 64
	samples := make(map[Op][]byte)
	for _, r := range pinSamples() {
		enc := r.Encode(nil)
		if len(enc) > maxLen {
			t.Fatalf("%v sample is %d bytes, over the %d-byte grid", r.Op(), len(enc), maxLen)
		}
		samples[r.Op()] = enc
	}
	var lines []string
	for code := uint32(0); code < pinnedOpCount+3; code++ {
		for _, fill := range []string{"00", "ff", "sample"} {
			full := make([]byte, maxLen)
			switch fill {
			case "ff":
				for i := range full {
					full[i] = 0xff
				}
			case "sample":
				if samples[Op(code)] == nil {
					continue
				}
				copy(full, samples[Op(code)])
			}
			copy(full, putU32(nil, code))
			verdicts := make([]byte, 0, maxLen+1)
			types := make(map[string]bool)
			for n := 0; n <= maxLen; n++ {
				req, err := decode(full[:n])
				switch {
				case err == nil && req == nil:
					t.Fatalf("op %d length %d: nil request with nil error", code, n)
				case err == nil:
					verdicts = append(verdicts, 'A')
					types[fmt.Sprintf("%T", req)] = true
				case errors.Is(err, ErrShortMessage):
					verdicts = append(verdicts, 's')
				case errors.Is(err, ErrBadOp):
					verdicts = append(verdicts, 'b')
				default:
					verdicts = append(verdicts, 'x')
				}
			}
			names := make([]string, 0, len(types))
			for name := range types {
				names = append(names, name)
			}
			sort.Strings(names)
			line := fmt.Sprintf("op=%02d fill=%-6s %s %s", code, fill, verdicts, strings.Join(names, ","))
			lines = append(lines, strings.TrimRight(line, " "))
		}
	}
	return lines
}

// TestDecodeRequestVerdictsMatchParent compares the verdict grid with the
// one captured from the chained decoder: the same frames accepted, as the
// same request types, and the same rejections classified as short-message
// or bad-op — by DecodeRequest, and by one Decoder that decodes the whole
// grid into the same storage.
func TestDecodeRequestVerdictsMatchParent(t *testing.T) {
	t.Run("DecodeRequest", func(t *testing.T) { verdictsMatchParent(t, DecodeRequest) })
	t.Run("Decoder", func(t *testing.T) { verdictsMatchParent(t, new(Decoder).Decode) })
}

func verdictsMatchParent(t *testing.T, decode func([]byte) (Request, error)) {
	golden := filepath.Join("testdata", "decode_verdicts.golden")
	got := strings.Join(decodeVerdicts(t, decode), "\n") + "\n"
	if *captureVerdicts {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("verdict grid has %d lines, captured grid %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("verdicts differ from the captured decoder:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
