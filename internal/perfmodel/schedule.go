package perfmodel

import (
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/protocol"
)

// Msg is one wire exchange of a session: a request and, unless Recv is
// zero, its reply. A schedule is a session's exchanges in wire order, one
// Msg per event an rcuda.Observer reports for the same session; the
// workload package's TestSchedulesMatchTheWire holds every builder below to
// a functional run's recording, message for message.
type Msg struct {
	Op protocol.Op
	// Send and Recv are the request's and the reply's Table I payload
	// bytes. A zero Recv means the request has no reply (finalization).
	Send, Recv int64
	// Stream is the stream an async op names: 0 is the default stream, i
	// the i-th stream the session created.
	Stream int
	// Wait is device time the reply waits for that no wire time hides: a
	// batched frame's closing synchronization waits out the frame's input
	// copy and launches, which a synchronization of its own would have
	// overlapped with its flight.
	Wait time.Duration
}

// session builds a schedule; its methods are the exchanges every session
// shape shares.
type session []Msg

func (s *session) add(op protocol.Op, send, recv int64) *Msg {
	*s = append(*s, Msg{Op: op, Send: send, Recv: recv})
	return &(*s)[len(*s)-1]
}

// repeat adds n equal messages.
func (s *session) repeat(n int, op protocol.Op, send, recv int64) {
	for range n {
		s.add(op, send, recv)
	}
}

// open is initialization, which carries the module image.
func (s *session) open(moduleBytes int) { s.add(protocol.OpInit, 4+int64(moduleBytes), 12) }

func (s *session) malloc(n int) { s.repeat(n, protocol.OpMalloc, 8, 8) }

func (s *session) free(n int) { s.repeat(n, protocol.OpFree, 8, 4) }

// finalize ends the session: a request with no reply.
func (s *session) finalize() { s.add(protocol.OpFinalize, 4, 0) }

// Schedule lists the exchanges of one run of a case study at a problem
// size — the session Table II prices and the analytic workload replays:
// initialization, one buffer per operand (FFT transforms in place in one),
// the input copies, the launch, the output copy, the frees and
// finalization.
func Schedule(cs calib.CaseStudy, size int) []Msg {
	copyBytes := calib.CopyBytes(cs, size)
	bufs := 1
	if cs == calib.MM {
		bufs = 3 // A, B, C
	}
	var s session
	s.open(calib.ModuleBytes(cs))
	s.malloc(bufs)
	s.repeat(calib.InputCopies(cs), protocol.OpMemcpyToDevice, 20+copyBytes, 4)
	s.add(protocol.OpLaunch, LaunchBytes(cs), 4)
	s.add(protocol.OpMemcpyToHost, 20, 4+copyBytes)
	s.free(bufs)
	s.finalize()
	return s
}

// PipelinedSchedule lists the exchanges of the pipelined FFT
// (workload.RunPipelined) of size transforms split into chunks equal
// parts: two ping-pong buffers and two streams; per chunk c an async input
// copy, launch and output copy, all on stream c%2+1; one device
// synchronization; then the streams, the buffers and the session are
// released.
func PipelinedSchedule(size, chunks int) []Msg {
	chunkBytes := calib.CopyBytes(calib.FFT, size/chunks)
	var s session
	s.open(calib.ModuleBytes(calib.FFT))
	s.malloc(2)
	s.repeat(2, protocol.OpStreamCreate, 4, 8)
	for c := range chunks {
		stream := c%2 + 1
		s.add(protocol.OpMemcpyToDeviceAsync, 24+chunkBytes, 4).Stream = stream
		s.add(protocol.OpLaunch, LaunchBytes(calib.FFT), 4).Stream = stream
		s.add(protocol.OpMemcpyToHostAsync, 24, 4+chunkBytes).Stream = stream
	}
	s.add(protocol.OpDeviceSynchronize, 4, 4)
	s.repeat(2, protocol.OpStreamDestroy, 8, 4)
	s.free(2)
	s.finalize()
	return s
}

// InferenceSchedule lists the exchanges of an inference session
// (workload.ExecuteInference over a client shaped by spec).
func InferenceSchedule(spec InferenceSpec) []Msg {
	var s session

	// Session setup: init with the module, one buffer per weight matrix
	// plus two activation ping-pong buffers, the weights uploaded
	// synchronously, one stream and one event.
	copyBytes := int64(24 + inferenceMatrixBytes)
	s.open(spec.ModuleBytes)
	for range spec.Layers {
		s.malloc(1)
		s.add(protocol.OpMemcpyToDevice, 20+inferenceMatrixBytes, 4)
	}
	s.malloc(2)
	s.add(protocol.OpStreamCreate, 4, 8)
	s.add(protocol.OpEventCreate, 4, 8)

	// Request loop.
	propsRecv := int64(36 + len(spec.DeviceName))
	launchBytes := LaunchBytes(calib.MM)
	for r := range spec.Requests {
		// The loop polls device properties to size its launches; the
		// batched client answers every poll after the first from cache.
		if !spec.Batched || r == 0 {
			s.add(protocol.OpGetDeviceProperties, 4, propsRecv)
		}
		if spec.Batched {
			// One OpBatch frame: header + length-prefixed input copy,
			// per-layer launches, the event record and, closing the frame,
			// the event synchronization; one combined response carrying a
			// code per sub-op.
			subs := spec.Layers + 3
			send := int64(16) + (4 + copyBytes) + int64(spec.Layers)*(4+launchBytes) + (4 + 12) + (4 + 8)
			s.add(protocol.OpBatch, send, int64(8+4*subs)).Wait = calib.PCIeTime(calib.MM, InferenceDim) +
				time.Duration(spec.Layers)*calib.KernelTime(calib.MM, InferenceDim)
		} else {
			s.add(protocol.OpMemcpyToDeviceAsync, copyBytes, 4).Stream = 1
			for range spec.Layers {
				s.add(protocol.OpLaunch, launchBytes, 4).Stream = 1
			}
			s.add(protocol.OpEventRecord, 12, 4).Stream = 1
			s.add(protocol.OpEventSynchronize, 8, 4)
			// The batched client answers a poll of the event it has just
			// synchronized itself.
			s.repeat(spec.Polls, protocol.OpEventQuery, 8, 4)
		}
		s.add(protocol.OpMemcpyToHost, 20, inferenceMatrixBytes+4)
	}

	// Teardown: event, stream, every buffer, finalization.
	s.add(protocol.OpEventDestroy, 8, 4)
	s.add(protocol.OpStreamDestroy, 8, 4)
	s.free(spec.Layers + 2)
	s.finalize()
	return s
}
