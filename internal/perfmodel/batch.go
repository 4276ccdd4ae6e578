package perfmodel

import (
	"fmt"
	"time"

	"rcuda/internal/netsim"
)

// This file extends the paper's estimation model to the batched data path:
// latency-bound AI-style workloads whose remote time is dominated by the
// per-call round trips of many tiny launches and polls, not by bulk memcpy
// bandwidth. For those the memcpy-only fixed-time extraction of Sections
// V/VI is useless — nearly all of the time IS network time. Instead the
// model enumerates the exact wire schedule of the inference loop, message
// by message, prices it on a link, and extracts the (small) residual fixed
// time the same way: Fixed = measured − netTime(source), Estimate =
// Fixed + netTime(target).

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

// InferenceModel predicts the time of an inference session's schedule on
// any link from one measured execution on a source link.
type InferenceModel struct {
	Schedule []Msg
	Source   *netsim.Link
	fixed    time.Duration
}

// BuildInference extracts the network-independent fixed time from a
// measured execution. Unlike the memcpy-dominated case studies, the
// latency-bound loop hides its tiny kernels behind wire time, so the fixed
// time may legitimately be zero; only a measurement below its own wire time
// is rejected as inconsistent with the schedule.
func BuildInference(sched []Msg, source *netsim.Link, measured time.Duration) (*InferenceModel, error) {
	fixed := measured - InferenceNetTime(source, sched)
	if fixed < 0 {
		return nil, fmt.Errorf("perfmodel: inference measured %v on %s is below its own wire time %v",
			measured, source.Name(), measured-fixed)
	}
	return &InferenceModel{Schedule: sched, Source: source, fixed: fixed}, nil
}

// Fixed returns the extracted network-independent time.
func (m *InferenceModel) Fixed() time.Duration { return m.fixed }

// Estimate predicts the session time on a target link: fixed time plus the
// target's wire time for the same schedule.
func (m *InferenceModel) Estimate(target *netsim.Link) time.Duration {
	return m.fixed + InferenceNetTime(target, m.Schedule)
}
