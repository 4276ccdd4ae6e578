package protocol

import "fmt"

// This file is the op table: everything the code knows about an operation
// as such — its wire code, its name, how long its request is and how to
// decode it, whether a retry may re-send it, whether it may ride in a
// batch or close one, whether it waits for the device scheduler and in which cost
// bucket, which of the paper's phases a trace files it under — is one row
// of ops. Adding an operation is one constant, one row, one case in the
// server's dispatch and one client method (DESIGN.md §3).

// Op identifies the remote CUDA function of a request.
type Op uint32

// Remote operations in wire order; the values are the protocol and never
// change. The first eight are the paper's (Table I plus the positional
// pair); the rest extend it with streams and events, device management,
// completion queries, chunked transfers, durable sessions, load
// statistics, batching and live migration. OpInit never appears on the
// wire (the initialization exchange is positional) but is defined so
// traces can label it.
const (
	OpInit Op = iota
	OpMalloc
	OpMemcpyToDevice
	OpMemcpyToHost
	OpLaunch
	OpFree
	OpDeviceSynchronize
	OpFinalize

	OpStreamCreate
	OpStreamDestroy
	OpStreamSynchronize
	OpMemcpyToDeviceAsync
	OpMemcpyToHostAsync
	OpEventCreate
	OpEventRecord
	OpEventSynchronize
	OpEventElapsed
	OpEventDestroy

	OpGetDeviceCount
	OpSetDevice
	OpGetDeviceProperties
	OpMemset
	OpMemcpyDeviceToDevice

	OpStreamQuery
	OpEventQuery

	OpMemcpyStreamBegin
	OpMemcpyStreamChunk
	OpMemcpyStreamEnd

	OpSessionHello
	OpSessionReattach

	OpStatsQuery

	OpBatch

	OpMigrateBegin
	OpMigrateChunk
	OpMigrateCommit
	OpSessionRestore

	opCount
)

// Phase is one of the seven execution phases of Section III of the paper,
// in order; package trace groups a session's calls by it (Figure 2).
type Phase uint8

// Execution phases in order.
const (
	PhaseInit Phase = iota
	PhaseAlloc
	PhaseInput
	PhaseKernel
	PhaseOutput
	PhaseRelease
	PhaseFinalize
	NumPhases
)

var phaseNames = [NumPhases]string{
	"Initialization", "Memory allocation", "Input data transfer", "Kernel execution",
	"Output data transfer", "Memory release", "Finalization",
}

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// SchedKind is the cost bucket in which a daemon's device scheduler
// estimates an operation. The zero value marks an operation that never
// touches device state — session control, monitoring, discovery — and
// bypasses the queue.
type SchedKind uint8

// Scheduler cost buckets.
const (
	SchedNone SchedKind = iota
	// SchedLaunch covers kernel launches.
	SchedLaunch
	// SchedCopy covers memory movement; its estimate scales with the
	// request's CopyBytes.
	SchedCopy
	// SchedSync covers device synchronization, whose cost is the drain of
	// whatever is queued.
	SchedSync
	// SchedBatch covers an OpBatch frame: many launches charged as one.
	SchedBatch
	// SchedOther covers cheap bookkeeping that still reads device state
	// (allocation, streams, events).
	SchedOther
)

// opInfo is one row of the op table.
type opInfo struct {
	// name is the CUDA-level name Op.String prints.
	name string
	// size is the exact length of the request in bytes; 0 means the length
	// varies and decode checks it.
	size int
	// decode parses a request whose leading identifier selected the row,
	// into storage d owns (decoder.go). Decode has already checked size, so
	// a fixed-size decoder reads its fields unguarded. Nil for OpInit, which
	// is positional, and for OpBatch (see Decode).
	decode func(d *Decoder, b []byte) (Request, error)
	// idempotent: re-executing the operation after a fault of unknown
	// outcome is safe. Writes of caller-held bytes to a caller-chosen
	// region and pure reads are; anything that creates, destroys or
	// launches is not — a retried launch could run a kernel twice, a
	// retried malloc could leak its first allocation.
	idempotent bool
	// batchable: the operation may ride inside an OpBatch frame. Only
	// fire-and-forget operations answered by a bare result code qualify;
	// anything returning data or a handle, or touching session state,
	// travels as its own exchange.
	batchable bool
	// closes: the operation may close an OpBatch frame as its last sub-op,
	// answered in the frame's reply instead of by an exchange of its own.
	// Only synchronization and completion queries qualify: each is a pure
	// wait or read, idempotent, and answered by a bare result code.
	closes bool
	sched  SchedKind
	phase  Phase
}

// ops is the table, indexed by Op.
var ops = [opCount]opInfo{
	OpInit:              {name: "Initialization", phase: PhaseInit},
	OpMalloc:            {name: "cudaMalloc", size: 8, decode: decodeMalloc, sched: SchedOther, phase: PhaseAlloc},
	OpMemcpyToDevice:    {name: "cudaMemcpy (to device)", decode: decodeMemcpyToDevice, idempotent: true, sched: SchedCopy, phase: PhaseInput},
	OpMemcpyToHost:      {name: "cudaMemcpy (to host)", size: 20, decode: decodeMemcpyToHost, idempotent: true, sched: SchedCopy, phase: PhaseOutput},
	OpLaunch:            {name: "cudaLaunch", decode: decodeLaunch, batchable: true, sched: SchedLaunch, phase: PhaseKernel},
	OpFree:              {name: "cudaFree", size: 8, decode: decodeFree, sched: SchedOther, phase: PhaseRelease},
	OpDeviceSynchronize: {name: "cudaDeviceSynchronize", size: 4, decode: decodeSync, idempotent: true, closes: true, sched: SchedSync, phase: PhaseKernel},
	OpFinalize:          {name: "Finalization", size: 4, decode: decodeFinalize, phase: PhaseFinalize},

	OpStreamCreate:        {name: "cudaStreamCreate", size: 4, decode: decodeStreamCreate, sched: SchedOther, phase: PhaseAlloc},
	OpStreamDestroy:       {name: "cudaStreamDestroy", size: 8, decode: decodeStreamOp, sched: SchedOther, phase: PhaseRelease},
	OpStreamSynchronize:   {name: "cudaStreamSynchronize", size: 8, decode: decodeStreamOp, idempotent: true, closes: true, sched: SchedOther, phase: PhaseKernel},
	OpMemcpyToDeviceAsync: {name: "cudaMemcpyAsync (to device)", decode: decodeMemcpyToDeviceAsync, batchable: true, sched: SchedCopy, phase: PhaseInput},
	OpMemcpyToHostAsync:   {name: "cudaMemcpyAsync (to host)", size: 24, decode: decodeMemcpyToHostAsync, sched: SchedCopy, phase: PhaseOutput},
	OpEventCreate:         {name: "cudaEventCreate", size: 4, decode: decodeEventCreate, sched: SchedOther, phase: PhaseAlloc},
	OpEventRecord:         {name: "cudaEventRecord", size: 12, decode: decodeEventRecord, batchable: true, sched: SchedOther, phase: PhaseKernel},
	OpEventSynchronize:    {name: "cudaEventSynchronize", size: 8, decode: decodeEventOp, idempotent: true, closes: true, sched: SchedOther, phase: PhaseKernel},
	OpEventElapsed:        {name: "cudaEventElapsedTime", size: 12, decode: decodeEventElapsed, idempotent: true, sched: SchedOther, phase: PhaseKernel},
	OpEventDestroy:        {name: "cudaEventDestroy", size: 8, decode: decodeEventOp, sched: SchedOther, phase: PhaseRelease},

	OpGetDeviceCount:       {name: "cudaGetDeviceCount", size: 4, decode: decodeGetDeviceCount, idempotent: true, phase: PhaseInit},
	OpSetDevice:            {name: "cudaSetDevice", size: 8, decode: decodeSetDevice, idempotent: true, phase: PhaseInit},
	OpGetDeviceProperties:  {name: "cudaGetDeviceProperties", size: 4, decode: decodeGetDeviceProperties, idempotent: true, phase: PhaseInit},
	OpMemset:               {name: "cudaMemset", size: 16, decode: decodeMemset, idempotent: true, batchable: true, sched: SchedCopy, phase: PhaseInput},
	OpMemcpyDeviceToDevice: {name: "cudaMemcpy (device to device)", size: 16, decode: decodeMemcpyD2D, sched: SchedCopy, phase: PhaseKernel},

	OpStreamQuery: {name: "cudaStreamQuery", size: 8, decode: decodeStreamOp, idempotent: true, closes: true, sched: SchedOther, phase: PhaseKernel},
	OpEventQuery:  {name: "cudaEventQuery", size: 8, decode: decodeEventOp, idempotent: true, closes: true, sched: SchedOther, phase: PhaseKernel},

	// One scheduler grant covers a whole chunked transfer — it is a single
	// op at the scheduler's granularity, like the one-frame copy it
	// replaces — so Begin is the copy and carries the total.
	OpMemcpyStreamBegin: {name: "cudaMemcpy (stream begin)", size: 20, decode: decodeMemcpyStreamBegin, sched: SchedCopy, phase: PhaseInput},
	OpMemcpyStreamChunk: {name: "cudaMemcpy (stream chunk)", decode: decodeChunkRow, sched: SchedOther, phase: PhaseInput},
	OpMemcpyStreamEnd:   {name: "cudaMemcpy (stream end)", size: 8, decode: decodeMemcpyStreamEnd, sched: SchedOther, phase: PhaseInput},

	OpSessionHello:    {name: "session hello", decode: decodeSessionHello, idempotent: true, phase: PhaseInit},
	OpSessionReattach: {name: "session reattach", size: 12, decode: decodeReattach, phase: PhaseInit},

	OpStatsQuery: {name: "stats query", size: 4, decode: decodeStatsQuery, idempotent: true, phase: PhaseInit},

	// A batch carries launches and records — individually unsafe to retry —
	// but the server deduplicates by the frame's sequence number and replays
	// the stored result codes, so re-sending the identical frame can never
	// execute anything twice.
	OpBatch: {name: "batched calls", idempotent: true, sched: SchedBatch, phase: PhaseKernel},

	OpMigrateBegin:   {name: "rcudaMigrate (begin)", size: 12, decode: decodeMigrateBegin, sched: SchedOther, phase: PhaseInit},
	OpMigrateChunk:   {name: "rcudaMigrate (chunk)", decode: decodeChunkRow, sched: SchedOther, phase: PhaseInit},
	OpMigrateCommit:  {name: "rcudaMigrate (commit)", size: 16, decode: decodeMigrateCommit, sched: SchedOther, phase: PhaseInit},
	OpSessionRestore: {name: "rcudaSessionRestore", size: 12, decode: decodeSessionRestore, sched: SchedOther, phase: PhaseInit},
}

// undeclared answers for a code outside the table: unnamed, not retried,
// not batched, and — should a hand-built request ever carry one — gated and
// filed where the classifiers the table replaced put anything unknown.
var undeclared = opInfo{sched: SchedOther, phase: PhaseFinalize}

// info returns the op's row.
func (o Op) info() *opInfo {
	if o < opCount {
		return &ops[o]
	}
	return &undeclared
}

// String returns the CUDA-level name of the operation.
func (o Op) String() string {
	if name := o.info().name; name != "" {
		return name
	}
	return fmt.Sprintf("Op(%d)", uint32(o))
}

// Idempotent reports whether re-executing the operation after a fault of
// unknown outcome is safe; the client's retry engine re-sends only these.
func (o Op) Idempotent() bool { return o.info().idempotent }

// Phase returns the paper phase a trace files the operation under.
func (o Op) Phase() Phase { return o.info().phase }

// BatchableOp reports whether op may ride inside an OpBatch frame.
func BatchableOp(op Op) bool { return op.info().batchable }

// ClosesBatch reports whether op may close an OpBatch frame: ride as its
// last sub-op, behind at least one batchable one.
func ClosesBatch(op Op) bool { return op.info().closes }

// SchedCost returns the scheduler cost bucket of a request and, for a copy,
// the bytes it moves. SchedNone means the request bypasses the device
// queue.
func SchedCost(req Request) (kind SchedKind, bytes int) {
	kind = req.Op().info().sched
	if kind == SchedCopy {
		if c, ok := req.(interface{ CopyBytes() int }); ok {
			bytes = c.CopyBytes()
		}
	}
	return kind, bytes
}

// Request is any client-to-server message after initialization.
type Request interface {
	Message
	// Op identifies the remote function.
	Op() Op
}

// DecodeRequest parses any post-initialization request into storage of its
// own: Decode with no decoder, for a caller that keeps the result or
// decodes too rarely to own one.
func DecodeRequest(b []byte) (Request, error) { return fresh.Decode(b) }

// Decode parses any post-initialization request by its leading function
// identifier: the identifier selects the op's row, the row's size is
// checked, the row's decoder does the rest. The request is valid until d
// decodes again.
func (d *Decoder) Decode(b []byte) (Request, error) {
	if len(b) < 4 {
		return nil, ErrShortMessage
	}
	op := Op(getU32(b, 0))
	if op == OpBatch {
		// The one decoder that is not in its row: it decodes its sub-ops
		// through Decode, and a table that named it would depend on itself
		// at initialization.
		return decodeBatch(d, b)
	}
	row := op.info()
	if row.decode == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadOp, uint32(op))
	}
	if row.size != 0 && len(b) != row.size {
		return nil, ErrShortMessage
	}
	return row.decode(d, b)
}
