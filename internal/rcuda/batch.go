package rcuda

import (
	"fmt"

	"rcuda/internal/cudart"
	"rcuda/internal/protocol"
)

// This file makes the data path RTT-efficient for small-call-dominated
// workloads — the AI-style traffic of thousands of tiny kernel launches,
// async copies, and event records where the paper's one-round-trip-per-call
// protocol pays almost pure network latency. With WithBatching the client
// coalesces consecutive fire-and-forget calls into one protocol.BatchRequest
// and flushes it on the first sync point: any call that needs an answer
// (StreamSynchronize, EventSynchronize, a memcpy to host, ...), a full
// batch, or Close. The server executes the sub-ops in order and answers
// with one combined response. A synchronization or completion query that
// finds work pending does not follow the frame in an exchange of its own:
// it closes the frame as its last sub-op, and the one reply answers both.
//
// Failure semantics follow CUDA's asynchronous model: a batched call
// returns nil immediately, and an error it produces on the server surfaces
// at the next sync point (like a failed cudaLaunch surfacing at
// cudaDeviceSynchronize). Replay safety under retry/reconnect comes from
// the batch sequence number: the server keeps the last executed sequence
// and its result codes per session, and answers a re-sent batch from them
// without executing anything twice.

// Batching defaults: a flush every DefaultBatchOps coalesced calls or once
// DefaultBatchBytes of encoded sub-ops are pending, whichever comes first.
// The ops cap keeps a single frame's combined response proportional in
// size; the byte cap keeps batching from turning many small sends into one
// bandwidth-bound jumbo frame — on GigaE-class links a frame past the
// small-message regime (~21 KB) pays a TCP-window excess of milliseconds,
// far more than the round trips batching saves, so the default stays
// comfortably below it.
const (
	DefaultBatchOps   = 64
	DefaultBatchBytes = 16 << 10
)

// WithBatching coalesces consecutive fire-and-forget operations (kernel
// launches, async host-to-device copies, event records, memsets) into
// single wire frames, and enables the client-side cache of immutable
// replies (device count and properties). maxOps <= 0 selects
// DefaultBatchOps and maxBytes <= 0 selects DefaultBatchBytes; maxOps is
// clamped to protocol.MaxBatchOps.
func WithBatching(maxOps, maxBytes int) ClientOption {
	return func(c *Client) {
		if maxOps <= 0 {
			maxOps = DefaultBatchOps
		}
		if maxOps > protocol.MaxBatchOps {
			maxOps = protocol.MaxBatchOps
		}
		if maxBytes <= 0 {
			maxBytes = DefaultBatchBytes
		}
		c.batching = true
		c.batchMaxOps = maxOps
		c.batchMaxBytes = maxBytes
	}
}

// enqueue coalesces one fire-and-forget request into the pending batch,
// flushing when a threshold is reached. The request is encoded immediately,
// so the caller's buffers (an async copy's source) are free to reuse on
// return, exactly as with an unbatched send. Sub-ops are encoded back to
// back into one pending buffer sized for a full batch, so a call costs no
// allocation of its own; if an oversized sub-op makes the buffer grow,
// earlier sub-ops simply stay in the array they were written to.
func (c *Client) enqueue(req protocol.Request) error {
	if c.closed.Load() {
		return cudart.ErrorInitialization
	}
	if c.lost {
		return fmt.Errorf("rcuda: %v: %w", req.Op(), ErrSessionLost)
	}
	c.pend(req)
	if len(c.pendSubs) >= c.batchMaxOps || c.pendBytes >= c.batchMaxBytes {
		return c.flushBatch(nil)
	}
	return nil
}

// pend encodes req onto the open batch.
func (c *Client) pend(req protocol.Request) {
	if c.pendBuf == nil {
		c.pendBuf = make([]byte, 0, c.batchMaxBytes)
	}
	start := len(c.pendBuf)
	c.pendBuf = req.Encode(c.pendBuf)
	raw := c.pendBuf[start:len(c.pendBuf):len(c.pendBuf)]
	c.pendSubs = append(c.pendSubs, raw)
	c.pendBytes += 4 + len(raw)
	c.cstats.OpsCoalesced.Add(1)
}

// folds reports whether a call of op closes the open batch instead of
// paying an exchange of its own after flushing it: a synchronization or
// completion query (protocol.ClosesBatch) that finds batched work pending
// and no deferred error waiting to be reported first.
func (c *Client) folds(op protocol.Op) bool {
	return protocol.ClosesBatch(op) && len(c.pendSubs) > 0 && c.deferredErr == nil && !c.closed.Load()
}

// flushBatch sends the pending sub-ops as one OpBatch exchange under the
// retry policy. The pending queue empties whether or not the exchange
// succeeds — a batch is never re-coalesced. Without a closing request, a
// sub-op failure reported by the server parks in deferredErr for the next
// sync point. With one (see folds), the request rides last in the frame and
// flushBatch returns its answer: its own code, or — when an earlier sub-op
// failed and it never ran — that failure, reported now as a sync point
// reports it. Either way nothing is parked.
func (c *Client) flushBatch(closing protocol.Request) error {
	if len(c.pendSubs) == 0 {
		return nil
	}
	if closing != nil {
		c.pend(closing)
	}
	// The sequence is fixed before the first attempt so a retry re-sends
	// the identical frame and the server's dedup can recognize it.
	c.batchSeq++
	subs, buf := c.pendSubs, c.pendBuf
	req := protocol.Put(&c.req.batch, protocol.BatchRequest{Seq: c.batchSeq, Subs: subs})
	n := len(subs)
	// The queue is detached before the exchange: a reconnect inside the
	// retry loop runs its own exchanges, and their sync points must find
	// nothing pending.
	c.pendSubs, c.pendBuf, c.pendBytes = nil, nil, 0
	var payload []byte
	err := c.runRetry(protocol.OpBatch, func() error {
		if err := c.conn.Send(req); err != nil {
			return fmt.Errorf("rcuda: batch send: %w", err)
		}
		p, err := c.conn.Recv()
		if err != nil {
			return fmt.Errorf("rcuda: batch recv: %w", err)
		}
		payload = p
		return nil
	})
	// The frame is reported while its slots still hold the sub-ops it
	// carried.
	if err == nil && c.observer != nil {
		c.observer.Call(protocol.OpBatch, req.WireSize(), len(payload))
	}
	// The exchange, retries included, is over and Send keeps nothing, so
	// the next batch reuses the queue's storage — unless one huge async
	// copy grew the buffer, which an idle client should not hold on to.
	clear(subs)
	c.pendSubs = subs[:0]
	if cap(buf) <= 2*c.batchMaxBytes {
		c.pendBuf = buf[:0]
	}
	if err != nil {
		return err
	}
	c.cstats.BatchesFlushed.Add(1)
	// Only the sticky first error, the last code and the count are consumed,
	// so the codes stay in the reply frame.
	firstErr, last, codes, err := protocol.BatchResponseHead(payload)
	if err != nil {
		return err
	}
	if codes != n {
		return fmt.Errorf("rcuda: batch response carries %d codes for %d sub-ops", codes, n)
	}
	if closing != nil {
		if last == 0 {
			last = firstErr
		}
		return cudart.Error(last).AsError()
	}
	if batchErr := cudart.Error(firstErr).AsError(); batchErr != nil && c.deferredErr == nil {
		c.deferredErr = batchErr
	}
	return nil
}

// syncPoint runs before every synchronous exchange: it flushes pending
// batched work so the wire keeps the program's call order, then surfaces
// the oldest deferred batch error, consuming it — CUDA's sticky-async-error
// model, where a failed launch reports at the next synchronizing call.
func (c *Client) syncPoint() error {
	if !c.batching {
		return nil
	}
	if err := c.flushBatch(nil); err != nil {
		return err
	}
	if err := c.deferredErr; err != nil {
		c.deferredErr = nil
		return err
	}
	return nil
}

// --- Server side --------------------------------------------------------------

// dispatchBatch executes one coalesced frame and returns its reply. A frame
// whose sequence matches the last executed one is a client retry of an
// exchange whose response was lost; it is answered from the remembered codes
// without executing anything, keeping replayed batches exactly-once on the
// device.
// The codes of a new frame go to the session's spare buffer, which becomes
// the remembered one only once every sub-op has run: a dispatch that aborts
// mid-frame parks the session still able to replay the batch before.
func (s *Server) dispatchBatch(sess *session, r *protocol.BatchRequest) (protocol.Message, error) {
	if sess.lastBatchCodes != nil && r.Seq == sess.lastBatchSeq {
		s.counters.BatchReplays.Add(1)
		return sess.batchReply(), nil
	}
	subs, err := r.Requests()
	if err != nil {
		return nil, fmt.Errorf("rcuda: batch: %w", err)
	}
	codes := sess.spareCodes[:0]
	if cap(codes) < len(subs) {
		codes = make([]uint32, 0, len(subs))
	}
	for _, sub := range subs {
		// The decoder admits only batchable sub-ops and, last, one that
		// closes the frame; reaching here with anything else means the
		// protocol and this dispatcher disagree on that set. A closing sub-op
		// waits on or reads the work before it, so it runs only if all of
		// that succeeded — as a sync point after a failed batch reports the
		// failure and is never sent — and otherwise reads 0.
		var opErr error
		switch op := sub.Op(); {
		case protocol.ClosesBatch(op):
			if firstNonzero(codes) == 0 {
				opErr, _ = sess.run(sub)
			}
		case protocol.BatchableOp(op):
			opErr, _ = sess.run(sub)
		default:
			return nil, fmt.Errorf("rcuda: unbatchable sub-op %v in batch", op)
		}
		codes = append(codes, code(opErr))
	}
	sess.lastBatchSeq = r.Seq
	sess.lastBatchCodes, sess.spareCodes = codes, sess.lastBatchCodes
	s.counters.BatchFrames.Add(1)
	s.counters.BatchedOps.Add(int64(len(subs)))
	return sess.batchReply(), nil
}

// batchReply builds the reply to the batch the session remembers.
func (ss *session) batchReply() *protocol.BatchResponse {
	codes := ss.lastBatchCodes
	return protocol.Put(&ss.reply.batch, protocol.BatchResponse{Err: firstNonzero(codes), Codes: codes})
}

// firstNonzero returns the first failing sub-op code, or zero.
func firstNonzero(codes []uint32) uint32 {
	for _, c := range codes {
		if c != 0 {
			return c
		}
	}
	return 0
}
