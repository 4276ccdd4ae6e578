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
// problem size over one network: one row per run of equal ops in the
// session's Schedule, in wire order — initialization, cudaMalloc, input
// cudaMemcpy, cudaLaunch, output cudaMemcpy, cudaFree. Finalization, which
// the paper's table does not list, has no row.
func TableII(cs calib.CaseStudy, size int, link *netsim.Link) []TableIIRow {
	// Control traffic rides the measured small-message curve; a bulk
	// payload rides the bandwidth model, with the rest of its message
	// priced as a small one.
	copyBytes := calib.CopyBytes(cs, size)
	small := link.SmallMessageTime
	bulk := func(n int64) time.Duration { return small(n-copyBytes) + link.PayloadTime(copyBytes) }

	var rows []TableIIRow
	for _, m := range Schedule(cs, size) {
		if m.Op == protocol.OpFinalize {
			continue
		}
		if n := len(rows); n > 0 && rows[n-1].Op == m.Op {
			rows[n-1].Count++
			continue
		}
		r := TableIIRow{
			Op: m.Op, Count: 1,
			SendBytes: m.Send, RecvBytes: m.Recv,
			SendTime: small(m.Send), RecvTime: small(m.Recv),
		}
		switch m.Op {
		case protocol.OpMemcpyToDevice:
			r.SendTime = bulk(m.Send)
		case protocol.OpMemcpyToHost:
			r.RecvTime = bulk(m.Recv)
		}
		rows = append(rows, r)
	}
	return rows
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
