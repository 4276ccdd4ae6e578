package perfmodel

import (
	"time"

	"rcuda/internal/netsim"
)

// This file extends the paper's estimation model to the batched data path:
// latency-bound AI-style workloads whose remote time is dominated by the
// per-call round trips of many tiny launches and polls, not by bulk memcpy
// bandwidth. For those the memcpy-only fixed-time extraction of Sections
// V/VI is useless — nearly all of the time IS network time. Instead the
// model enumerates the exact wire schedule of the inference loop, message
// by message, and prices it on a link (InferenceNetTime); a measured run
// minus its source link's price is the (small) residual fixed time, and
// that plus a target link's price predicts the run there.

// InferenceDim is the square activation/weight dimension of the modeled
// DNN inference loop — one 16×16 thread block per layer, the smallest
// launch the sgemm kernel accepts, maximizing the per-call overhead the
// batched path removes.
const InferenceDim = 16

// inferenceMatrixBytes is the wire payload of one InferenceDim² float32
// matrix (weights, activations, outputs all share the shape).
const inferenceMatrixBytes = 4 * InferenceDim * InferenceDim

// InferenceSpec describes one DNN-inference-loop session precisely enough
// to enumerate its wire schedule.
type InferenceSpec struct {
	// ModuleBytes is the size of the GPU module image sent with
	// initialization.
	ModuleBytes int
	// Layers is the network depth: launches per request.
	Layers int
	// Requests is how many inputs the session pushes through the network.
	Requests int
	// Polls is how many cudaEventQuery calls follow each request's
	// synchronization (a serving loop checking completion status). Each is
	// an exchange unbatched; the batched client answers them itself.
	Polls int
	// Batched selects the coalesced wire schedule (rcuda.WithBatching):
	// the per-request copy, launches, and event record ride one OpBatch
	// frame that the event synchronization closes, event polls after it
	// never reach the wire, and device property polls are answered from
	// the client cache after the first.
	Batched bool
	// DeviceName sizes the cudaGetDeviceProperties response.
	DeviceName string
}

// InferenceNetTime prices a schedule on a link: the sum of every
// message's send and response wire times, in the strictly synchronous
// request/response discipline of the protocol, plus the device waits the
// schedule exposes (Msg.Wait).
func InferenceNetTime(link *netsim.Link, sched []Msg) time.Duration {
	var total time.Duration
	for _, m := range sched {
		total += link.WireTime(m.Send)
		if m.Recv > 0 {
			total += link.WireTime(m.Recv)
		}
		total += m.Wait
	}
	return total
}
