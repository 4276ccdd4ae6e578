package rcuda

import (
	"rcuda/internal/protocol"
	"rcuda/internal/sched"
)

// opTraits is how TestOpTraitsMatchParent reaches the per-op
// classification; req is nil for a code with no request message, and then
// only the first three results mean anything.
func opTraits(op protocol.Op, req protocol.Request) (idempotent, batchable, closes bool, kind sched.OpKind, bytes int, gated bool) {
	idempotent, batchable, closes = op.Idempotent(), protocol.BatchableOp(op), protocol.ClosesBatch(op)
	if req != nil {
		var k protocol.SchedKind
		if k, bytes = protocol.SchedCost(req); k != protocol.SchedNone {
			kind, gated = schedKinds[k], true
		}
	}
	return idempotent, batchable, closes, kind, bytes, gated
}
