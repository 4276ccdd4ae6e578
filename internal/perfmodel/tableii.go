package perfmodel

import (
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
)

// TableIIRow is one remote API call of a case study with its message sizes
// and estimated transfer times on a network — one row of the paper's
// Table II, evaluated at a concrete problem size.
type TableIIRow struct {
	Op    protocol.Op
	Count int // how many times the call occurs (e.g. cudaMalloc ×3 in MM)
	// SendBytes/RecvBytes are the Table I payload sizes at this problem
	// size (fixed fields plus any variable region).
	SendBytes, RecvBytes int64
	// SendTime/RecvTime estimate the one-way transfer times: measured
	// small-message latency for control traffic, bandwidth time for bulk
	// payloads (the paper's f/g-based memcpy estimates).
	SendTime, RecvTime time.Duration
}

// LaunchBytes is the wire size of a case study's kernel launch request: the
// 44 fixed bytes plus the variable region, the NUL-terminated kernel name
// and the packed parameter block (sgemmNN with 4 params; fft512 with 3) —
// the x of "x + 44". An inference layer launches sgemmNN too.
func LaunchBytes(cs calib.CaseStudy) int64 {
	if cs == calib.MM {
		return 44 + int64(len("sgemmNN")) + 1 + 4*4
	}
	return 44 + int64(len("fft512")) + 1 + 3*4
}

// TableII evaluates the remote API call costs of a case study at one
// problem size over one network. Rows appear in the paper's order:
// initialization, cudaMalloc, input cudaMemcpy, cudaLaunch, output
// cudaMemcpy, cudaFree.
func TableII(cs calib.CaseStudy, size int, link *netsim.Link) []TableIIRow {
	copyBytes := calib.CopyBytes(cs, size)
	numBufs := 1 // FFT transforms in place: one buffer
	if cs == calib.MM {
		numBufs = 3 // A, B, C
	}

	// Time helpers. Control traffic rides the measured small-message
	// curve; bulk payloads ride the bandwidth model, with their fixed
	// header priced as a small message.
	small := func(n int64) time.Duration { return link.SmallMessageTime(n) }
	bulk := func(fixed, payload int64) time.Duration {
		return small(fixed) + link.PayloadTime(payload)
	}

	initSend := int64(4 + calib.ModuleBytes(cs))
	launch := LaunchBytes(cs)

	return []TableIIRow{
		{
			Op: protocol.OpInit, Count: 1,
			SendBytes: initSend, RecvBytes: 12,
			SendTime: small(initSend), RecvTime: small(12),
		},
		{
			Op: protocol.OpMalloc, Count: numBufs,
			SendBytes: 8, RecvBytes: 8,
			SendTime: small(8), RecvTime: small(8),
		},
		{
			Op: protocol.OpMemcpyToDevice, Count: calib.InputCopies(cs),
			SendBytes: copyBytes + 20, RecvBytes: 4,
			SendTime: bulk(20, copyBytes), RecvTime: small(4),
		},
		{
			Op: protocol.OpLaunch, Count: 1,
			SendBytes: launch, RecvBytes: 4,
			SendTime: small(launch), RecvTime: small(4),
		},
		{
			Op: protocol.OpMemcpyToHost, Count: 1,
			SendBytes: 20, RecvBytes: copyBytes + 4,
			SendTime: small(20), RecvTime: bulk(4, copyBytes),
		},
		{
			Op: protocol.OpFree, Count: numBufs,
			SendBytes: 8, RecvBytes: 4,
			SendTime: small(8), RecvTime: small(4),
		},
	}
}

// Totals sums a Table II row set, weighting each row by its occurrence
// count, yielding the paper's per-table "Total" line.
func Totals(rows []TableIIRow) (sendBytes, recvBytes int64, sendTime, recvTime time.Duration) {
	for _, r := range rows {
		n := int64(r.Count)
		sendBytes += n * r.SendBytes
		recvBytes += n * r.RecvBytes
		sendTime += time.Duration(r.Count) * r.SendTime
		recvTime += time.Duration(r.Count) * r.RecvTime
	}
	return sendBytes, recvBytes, sendTime, recvTime
}
