package rcuda

import (
	"rcuda/internal/protocol"
	"rcuda/internal/sched"
)

// opTraits is how TestOpTraitsMatchParent reaches the per-op
// classification; req is nil for a code with no request message, and then
// only the first two results mean anything.
func opTraits(op protocol.Op, req protocol.Request) (idempotent, batchable bool, kind sched.OpKind, bytes int, gated bool) {
	idempotent, batchable = op.Idempotent(), protocol.BatchableOp(op)
	if req != nil {
		var k protocol.SchedKind
		if k, bytes = protocol.SchedCost(req); k != protocol.SchedNone {
			kind, gated = schedKinds[k], true
		}
	}
	return idempotent, batchable, kind, bytes, gated
}
