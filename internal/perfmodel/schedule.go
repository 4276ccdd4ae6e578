package perfmodel

import (
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/protocol"
)

// Msg is one wire exchange of a session: a request and, unless Recv is
// zero, its reply, with what the exchange costs besides the wire. A
// schedule is a session's exchanges in wire order, one Msg per event an
// rcuda.Observer reports for the same session; the workload package's
// TestSchedulesMatchTheWire holds every builder below to a functional run's
// recording, message for message and bulk byte for bulk byte. The builders
// are the one place that prices a message; every walker reads the fields.
type Msg struct {
	Op protocol.Op
	// Send and Recv are the request's and the reply's Table I payload
	// bytes. A zero Recv means the request has no reply (finalization).
	Send, Recv int64
	// Bulk is the payload a copy carries, counted in Send for an input
	// transfer and in Recv for an output one (its op's Phase says which);
	// zero for every other exchange.
	Bulk int64
	// Device is the time the request puts on the device: the PCIe
	// transfer of a copy's Bulk, or a launch's kernel. InferenceSchedule
	// sets none: its tiny copies and kernels hide behind the wire, all but
	// what a batched frame's Wait names.
	Device time.Duration
	// Stream is the stream an async op names: 0 is the default stream, i
	// the i-th stream the session created.
	Stream int
	// Wait is device time the reply waits for that no wire time hides: a
	// batched frame's closing synchronization waits out the frame's input
	// copy and launches, which a synchronization of its own would have
	// overlapped with its flight.
	Wait time.Duration
}

// The exchanges every session shape shares. Initialization carries the
// module image; finalization is a request with no reply.
var (
	mallocMsg   = Msg{Op: protocol.OpMalloc, Send: 8, Recv: 8}
	freeMsg     = Msg{Op: protocol.OpFree, Send: 8, Recv: 4}
	finalizeMsg = Msg{Op: protocol.OpFinalize, Send: 4}
)

func initMsg(moduleBytes int) Msg {
	return Msg{Op: protocol.OpInit, Send: 4 + int64(moduleBytes), Recv: 12}
}

// launchMsg is a kernel launch of a case study on stream that runs kernel
// on the device.
func launchMsg(cs calib.CaseStudy, stream int, kernel time.Duration) Msg {
	return Msg{Op: protocol.OpLaunch, Send: LaunchBytes(cs), Recv: 4, Stream: stream, Device: kernel}
}

// repeat appends n copies of m to s.
func repeat(s []Msg, n int, m Msg) []Msg {
	for range n {
		s = append(s, m)
	}
	return s
}

// Schedule lists the exchanges of one run of a case study at a problem
// size — the session Table II prices and the analytic workload replays:
// initialization, one buffer per operand (FFT transforms in place in one),
// the input copies, the launch, the output copy, the frees and
// finalization.
func Schedule(cs calib.CaseStudy, size int) []Msg {
	return appendSchedule(nil, cs, size)
}

// caseStudyMsgs is the length of the longest case study schedule, MM's.
const caseStudyMsgs = 12

// appendSchedule appends Schedule(cs, size) to s, so a caller that only
// sums the schedule can build it in a buffer on its own stack.
func appendSchedule(s []Msg, cs calib.CaseStudy, size int) []Msg {
	copyBytes, pcie := calib.CopyBytes(cs, size), calib.PCIeTime(cs, size)
	bufs := 1
	if cs == calib.MM {
		bufs = 3 // A, B, C
	}
	s = append(s, initMsg(calib.ModuleBytes(cs)))
	s = repeat(s, bufs, mallocMsg)
	s = repeat(s, calib.InputCopies(cs),
		Msg{Op: protocol.OpMemcpyToDevice, Send: 20 + copyBytes, Recv: 4, Bulk: copyBytes, Device: pcie})
	s = append(s, launchMsg(cs, 0, calib.KernelTime(cs, size)),
		Msg{Op: protocol.OpMemcpyToHost, Send: 20, Recv: 4 + copyBytes, Bulk: copyBytes, Device: pcie})
	s = repeat(s, bufs, freeMsg)
	return append(s, finalizeMsg)
}

// PipelinedSchedule lists the exchanges of the pipelined FFT
// (workload.RunPipelined) of size transforms split into chunks equal
// parts: two ping-pong buffers and two streams; per chunk c an async input
// copy, launch and output copy, all on stream c%2+1; one device
// synchronization; then the streams, the buffers and the session are
// released.
func PipelinedSchedule(size, chunks int) []Msg {
	chunk := size / chunks
	chunkBytes, pcie := calib.CopyBytes(calib.FFT, chunk), calib.PCIeTime(calib.FFT, chunk)
	kernel := calib.KernelTime(calib.FFT, chunk)
	s := []Msg{initMsg(calib.ModuleBytes(calib.FFT)), mallocMsg, mallocMsg}
	s = repeat(s, 2, Msg{Op: protocol.OpStreamCreate, Send: 4, Recv: 8})
	for c := range chunks {
		stream := c%2 + 1
		s = append(s,
			Msg{Op: protocol.OpMemcpyToDeviceAsync, Send: 24 + chunkBytes, Recv: 4, Stream: stream, Bulk: chunkBytes, Device: pcie},
			launchMsg(calib.FFT, stream, kernel),
			Msg{Op: protocol.OpMemcpyToHostAsync, Send: 24, Recv: 4 + chunkBytes, Stream: stream, Bulk: chunkBytes, Device: pcie})
	}
	s = append(s, Msg{Op: protocol.OpDeviceSynchronize, Send: 4, Recv: 4})
	s = repeat(s, 2, Msg{Op: protocol.OpStreamDestroy, Send: 8, Recv: 4})
	s = repeat(s, 2, freeMsg)
	return append(s, finalizeMsg)
}

// InferenceSchedule lists the exchanges of an inference session
// (workload.ExecuteInference over a client shaped by spec).
func InferenceSchedule(spec InferenceSpec) []Msg {
	// Session setup: init with the module, one buffer per weight matrix
	// plus two activation ping-pong buffers, the weights uploaded
	// synchronously, one stream and one event.
	const matrix = inferenceMatrixBytes
	s := []Msg{initMsg(spec.ModuleBytes)}
	for range spec.Layers {
		s = append(s, mallocMsg, Msg{Op: protocol.OpMemcpyToDevice, Send: 20 + matrix, Recv: 4, Bulk: matrix})
	}
	s = append(s, mallocMsg, mallocMsg,
		Msg{Op: protocol.OpStreamCreate, Send: 4, Recv: 8},
		Msg{Op: protocol.OpEventCreate, Send: 4, Recv: 8})

	// Request loop.
	propsRecv := int64(36 + len(spec.DeviceName))
	launch := launchMsg(calib.MM, 1, 0)
	for r := range spec.Requests {
		// The loop polls device properties to size its launches; the
		// batched client answers every poll after the first from cache.
		if !spec.Batched || r == 0 {
			s = append(s, Msg{Op: protocol.OpGetDeviceProperties, Send: 4, Recv: propsRecv})
		}
		if spec.Batched {
			// One OpBatch frame: header + length-prefixed input copy,
			// per-layer launches, the event record and, closing the frame,
			// the event synchronization; one combined response carrying a
			// code per sub-op.
			subs := spec.Layers + 3
			send := int64(16) + (4 + 24 + matrix) + int64(spec.Layers)*(4+launch.Send) + (4 + 12) + (4 + 8)
			s = append(s, Msg{Op: protocol.OpBatch, Send: send, Recv: int64(8 + 4*subs),
				Wait: calib.PCIeTime(calib.MM, InferenceDim) + time.Duration(spec.Layers)*calib.KernelTime(calib.MM, InferenceDim)})
		} else {
			s = append(s, Msg{Op: protocol.OpMemcpyToDeviceAsync, Send: 24 + matrix, Recv: 4, Stream: 1, Bulk: matrix})
			s = repeat(s, spec.Layers, launch)
			s = append(s,
				Msg{Op: protocol.OpEventRecord, Send: 12, Recv: 4, Stream: 1},
				Msg{Op: protocol.OpEventSynchronize, Send: 8, Recv: 4})
			// The batched client answers a poll of the event it has just
			// synchronized itself.
			s = repeat(s, spec.Polls, Msg{Op: protocol.OpEventQuery, Send: 8, Recv: 4})
		}
		s = append(s, Msg{Op: protocol.OpMemcpyToHost, Send: 20, Recv: 4 + matrix, Bulk: matrix})
	}

	// Teardown: event, stream, every buffer, finalization.
	s = append(s,
		Msg{Op: protocol.OpEventDestroy, Send: 8, Recv: 4},
		Msg{Op: protocol.OpStreamDestroy, Send: 8, Recv: 4})
	s = repeat(s, spec.Layers+2, freeMsg)
	return append(s, finalizeMsg)
}
