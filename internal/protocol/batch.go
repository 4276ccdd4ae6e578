package protocol

import "fmt"

// This file defines the wire-level batching extension. The paper's protocol
// pays one network round trip per CUDA call, which is fine for the
// bulk-transfer case studies but dominates latency-bound AI workloads:
// thousands of tiny kernel launches, async copies, and event records where
// RTT — not bandwidth — is the bottleneck. A batch coalesces a run of
// consecutive fire-and-forget operations (the ones whose response is a bare
// result code) into one OpBatch frame answered by one combined response, so
// a request loop of N small calls costs one round trip instead of N.
//
// The frame layout follows the Table I style: op (4) + sequence (8) +
// sub-op count (4) + per sub-op {length (4) + the sub-op's ordinary encoded
// request}. The sequence number makes a replayed batch idempotent-safe
// under the retry/reconnect machinery: the server remembers the last batch
// sequence it executed per session, and a batch that arrives again with
// that sequence — the retry of an exchange whose response was lost — is
// answered from the stored result codes without re-executing anything.
//
// Only operations whose response carries nothing but the result code are
// batchable (BatchableOp); the decoder enforces it, so a malformed or
// hostile frame cannot smuggle a data-returning or session-management
// operation past the per-op dispatch paths. The one exception is the frame's
// closing sub-op: a synchronization or completion query (ClosesBatch) may
// ride last, behind at least one batchable sub-op, so the sync point that
// flushes a batch costs no round trip of its own. It runs only if every
// sub-op before it succeeded; otherwise its code reads 0 and Err carries
// the earlier failure.

// MaxBatchOps bounds the sub-op count one batch frame may declare, so a
// corrupt or hostile frame cannot make the decoder allocate absurd slices.
const MaxBatchOps = 1024

// BatchRequest carries a run of coalesced sub-operations: op (4) +
// sequence (8) + count (4) + per sub-op {length (4) + encoded request} =
// 16 + Σ(4+len) bytes. Subs holds each sub-op's ordinary encoded form;
// Decoded, populated by the wire decoder, holds the parsed requests in the
// same order (Encode ignores it).
type BatchRequest struct {
	Seq     uint64
	Subs    [][]byte
	Decoded []Request
}

// Encode implements Message.
func (m *BatchRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpBatch))
	dst = putU64(dst, m.Seq)
	dst = putU32(dst, uint32(len(m.Subs)))
	for _, sub := range m.Subs {
		dst = putU32(dst, uint32(len(sub)))
		dst = append(dst, sub...)
	}
	return dst
}

// WireSize implements Message.
func (m *BatchRequest) WireSize() int {
	n := 16
	for _, sub := range m.Subs {
		n += 4 + len(sub)
	}
	return n
}

// Op implements Request.
func (m *BatchRequest) Op() Op { return OpBatch }

// Requests returns the parsed sub-operations, decoding Subs when the
// request was built locally rather than parsed off the wire.
func (m *BatchRequest) Requests() ([]Request, error) {
	if m.Decoded != nil {
		return m.Decoded, nil
	}
	reqs := make([]Request, len(m.Subs))
	for i, sub := range m.Subs {
		r, err := DecodeRequest(sub)
		if err != nil {
			return nil, fmt.Errorf("protocol: batch sub-op %d: %w", i, err)
		}
		reqs[i] = r
	}
	return reqs, nil
}

// BatchResponse answers a whole batch: first nonzero sub-op code (4) +
// count (4) + one result code per sub-op (4n) = 8 + 4n bytes. Err echoes
// the first nonzero code so a client that only needs the CUDA-style
// "sticky first error" can skip scanning Codes; with the last code it also
// tells a closing sub-op's own answer (nonzero last) from an earlier
// failure that kept it from running (zero last, nonzero Err).
type BatchResponse struct {
	Err   uint32
	Codes []uint32
}

// Encode implements Message.
func (m *BatchResponse) Encode(dst []byte) []byte {
	dst = putU32(putU32(dst, m.Err), uint32(len(m.Codes)))
	for _, c := range m.Codes {
		dst = putU32(dst, c)
	}
	return dst
}

// WireSize implements Message.
func (m *BatchResponse) WireSize() int { return 8 + 4*len(m.Codes) }

// BatchResponseHead checks a combined batch response — the declared code
// count must match the payload length exactly and stay within MaxBatchOps —
// and returns what a client consumes of it: the first nonzero code, the
// last code (a closing sub-op's own answer) and the count.
func BatchResponseHead(b []byte) (firstErr, last uint32, codes int, err error) {
	if len(b) < 8 {
		return 0, 0, 0, ErrShortMessage
	}
	n := getU32(b, 4)
	if n > MaxBatchOps {
		return 0, 0, 0, fmt.Errorf("protocol: batch response declares %d codes (max %d)", n, MaxBatchOps)
	}
	if len(b) != 8+4*int(n) {
		return 0, 0, 0, fmt.Errorf("protocol: batch response declares %d codes but carries %d bytes", n, len(b)-8)
	}
	if n > 0 {
		last = getU32(b, len(b)-4)
	}
	return getU32(b, 0), last, int(n), nil
}

// DecodeBatchResponse parses a whole combined batch response.
func DecodeBatchResponse(b []byte) (*BatchResponse, error) {
	firstErr, _, n, err := BatchResponseHead(b)
	if err != nil {
		return nil, err
	}
	m := &BatchResponse{Err: firstErr}
	if n > 0 {
		m.Codes = make([]uint32, n)
		for i := range m.Codes {
			m.Codes[i] = getU32(b, 8+4*i)
		}
	}
	return m, nil
}

// decodeBatch decodes an OpBatch frame for Decode. Every sub-op is fully
// validated here — length in range, decodable, batchable or closing the
// frame — so the dispatcher never sees a half-parsed batch. Sub slices
// alias b under the same ownership contract as the memcpy payloads.
func decodeBatch(d *Decoder, b []byte) (Request, error) {
	if len(b) < 16 {
		return nil, ErrShortMessage
	}
	count := getU32(b, 12)
	if count == 0 {
		return nil, fmt.Errorf("protocol: empty batch")
	}
	if count > MaxBatchOps {
		return nil, fmt.Errorf("protocol: batch declares %d sub-ops (max %d)", count, MaxBatchOps)
	}
	m := d.beginBatch(int(count))
	m.Seq = getU64(b, 4)
	off := 16
	for i := 0; i < int(count); i++ {
		if len(b)-off < 4 {
			return nil, fmt.Errorf("protocol: batch truncated in sub-op %d header: %w", i, ErrShortMessage)
		}
		size := int(getU32(b, off))
		off += 4
		if size > len(b)-off {
			return nil, fmt.Errorf("protocol: batch sub-op %d declares %d bytes, %d remain", i, size, len(b)-off)
		}
		raw := b[off : off+size]
		d.aimAtSlab(raw)
		sub, err := d.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("protocol: batch sub-op %d: %w", i, err)
		}
		if op := sub.Op(); !BatchableOp(op) && (!ClosesBatch(op) || i == 0 || i != int(count)-1) {
			return nil, fmt.Errorf("protocol: batch sub-op %d: %v is not batchable there", i, op)
		}
		m.Subs = append(m.Subs, raw)
		m.Decoded = append(m.Decoded, sub)
		off += size
	}
	if off != len(b) {
		return nil, fmt.Errorf("protocol: batch carries %d trailing bytes", len(b)-off)
	}
	return m, nil
}
