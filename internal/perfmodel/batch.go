package perfmodel

import (
	"fmt"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
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

// InferenceMsg is one request/response exchange of the inference session.
// A zero RecvBytes means the request has no response (finalization).
type InferenceMsg struct {
	Op                   protocol.Op
	SendBytes, RecvBytes int64
	// Wait is how long the server holds the response for device work no
	// wire time hides: a batched frame's closing synchronization waits out
	// the frame's input copy and launches, which a synchronization of its
	// own would have overlapped with its flight.
	Wait time.Duration
}

// launchWireBytes is the wire size of one sgemm layer launch: the fixed
// header plus the NUL-terminated kernel name and four packed parameters.
func launchWireBytes() int64 {
	return 44 + int64(len("sgemmNN")) + 1 + 4*4
}

// InferenceSchedule lists every message of an inference session in order —
// exactly the traffic the functional workload generates, plus nothing. The
// workload test cross-checks this claim message count for message count.
func InferenceSchedule(spec InferenceSpec) []InferenceMsg {
	var msgs []InferenceMsg
	add := func(op protocol.Op, send, recv int64) {
		msgs = append(msgs, InferenceMsg{Op: op, SendBytes: send, RecvBytes: recv})
	}

	// Session setup: init with the module, one buffer per weight matrix
	// plus two activation ping-pong buffers, the weights uploaded
	// synchronously, one stream and one event.
	copyBytes := int64(24 + inferenceMatrixBytes)
	add(protocol.OpInit, 4+int64(spec.ModuleBytes), 12)
	for i := 0; i < spec.Layers+2; i++ {
		add(protocol.OpMalloc, 8, 8)
		if i < spec.Layers {
			add(protocol.OpMemcpyToDevice, 20+inferenceMatrixBytes, 4)
		}
	}
	add(protocol.OpStreamCreate, 4, 8)
	add(protocol.OpEventCreate, 4, 8)

	// Request loop.
	propsRecv := int64(36 + len(spec.DeviceName))
	launchBytes := launchWireBytes()
	for r := 0; r < spec.Requests; r++ {
		// The loop polls device properties to size its launches; the
		// batched client answers every poll after the first from cache.
		if !spec.Batched || r == 0 {
			add(protocol.OpGetDeviceProperties, 4, propsRecv)
		}
		if spec.Batched {
			// One OpBatch frame: header + length-prefixed input copy,
			// per-layer launches, the event record and, closing the frame,
			// the event synchronization; one combined response carrying a
			// code per sub-op.
			subs := spec.Layers + 3
			send := int64(16) + (4 + copyBytes) + int64(spec.Layers)*(4+launchBytes) + (4 + 12) + (4 + 8)
			add(protocol.OpBatch, send, int64(8+4*subs))
			msgs[len(msgs)-1].Wait = calib.PCIeTime(calib.MM, InferenceDim) +
				time.Duration(spec.Layers)*calib.KernelTime(calib.MM, InferenceDim)
		} else {
			add(protocol.OpMemcpyToDeviceAsync, copyBytes, 4)
			for l := 0; l < spec.Layers; l++ {
				add(protocol.OpLaunch, launchBytes, 4)
			}
			add(protocol.OpEventRecord, 12, 4)
			add(protocol.OpEventSynchronize, 8, 4)
		}
		// The batched client answers a poll of the event it has just
		// synchronized itself.
		for p := 0; p < spec.Polls && !spec.Batched; p++ {
			add(protocol.OpEventQuery, 8, 4)
		}
		add(protocol.OpMemcpyToHost, 20, inferenceMatrixBytes+4)
	}

	// Teardown: event, stream, every buffer, finalization (no response).
	add(protocol.OpEventDestroy, 8, 4)
	add(protocol.OpStreamDestroy, 8, 4)
	for i := 0; i < spec.Layers+2; i++ {
		add(protocol.OpFree, 8, 4)
	}
	add(protocol.OpFinalize, 4, 0)
	return msgs
}

// InferenceTotals sums the schedule: message count (request/response pairs)
// and total bytes each way. The functional workload asserts these against
// its transport counters, pinning the schedule to the real wire exactly.
func InferenceTotals(spec InferenceSpec) (msgs int, sendBytes, recvBytes int64) {
	for _, m := range InferenceSchedule(spec) {
		msgs++
		sendBytes += m.SendBytes
		recvBytes += m.RecvBytes
	}
	return msgs, sendBytes, recvBytes
}

// InferenceNetTime prices the session's wire schedule on a link: the sum of
// every message's send and response wire times, in the strictly synchronous
// request/response discipline of the protocol, plus the device waits the
// schedule exposes (InferenceMsg.Wait).
func InferenceNetTime(link *netsim.Link, spec InferenceSpec) time.Duration {
	var total time.Duration
	for _, m := range InferenceSchedule(spec) {
		total += link.WireTime(m.SendBytes)
		if m.RecvBytes > 0 {
			total += link.WireTime(m.RecvBytes)
		}
		total += m.Wait
	}
	return total
}

// InferenceModel predicts inference-session times on any link from one
// measured execution on a source link.
type InferenceModel struct {
	Spec   InferenceSpec
	Source *netsim.Link
	fixed  time.Duration
}

// BuildInference extracts the network-independent fixed time from a
// measured execution. Unlike the memcpy-dominated case studies, the
// latency-bound loop hides its tiny kernels behind wire time, so the fixed
// time may legitimately be zero; only a measurement below its own wire time
// is rejected as inconsistent with the schedule.
func BuildInference(spec InferenceSpec, source *netsim.Link, measured time.Duration) (*InferenceModel, error) {
	fixed := measured - InferenceNetTime(source, spec)
	if fixed < 0 {
		return nil, fmt.Errorf("perfmodel: inference measured %v on %s is below its own wire time %v",
			measured, source.Name(), measured-fixed)
	}
	return &InferenceModel{Spec: spec, Source: source, fixed: fixed}, nil
}

// Fixed returns the extracted network-independent time.
func (m *InferenceModel) Fixed() time.Duration { return m.fixed }

// Estimate predicts the session time on a target link: fixed time plus the
// target's wire time for the same schedule.
func (m *InferenceModel) Estimate(target *netsim.Link) time.Duration {
	return m.fixed + InferenceNetTime(target, m.Spec)
}
