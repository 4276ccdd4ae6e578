package protocol

import "fmt"

// This file extends the wire protocol with streams, asynchronous memory
// copies, and events — the surface the paper explicitly defers
// ("asynchronous transfers [are left] for future work"). The message style
// follows Table I: a 32-bit function identifier, fixed little-endian
// fields, and a 32-bit result code leading every response.
//
// One subtlety: the transport is synchronous request/response, so an
// asynchronous device-to-host copy still returns its data in the response;
// asynchrony is server-side (the copy is queued on a device stream and
// overlaps other device work). The data is only guaranteed meaningful to
// the application after the stream synchronizes, matching CUDA semantics.

// --- Streams ----------------------------------------------------------------

// StreamCreateRequest allocates a stream: 4 bytes.
type StreamCreateRequest struct{}

// Encode implements Message.
func (m *StreamCreateRequest) Encode(dst []byte) []byte { return putU32(dst, uint32(OpStreamCreate)) }

// WireSize implements Message.
func (m *StreamCreateRequest) WireSize() int { return 4 }

// Op implements Request.
func (m *StreamCreateRequest) Op() Op { return OpStreamCreate }

// StreamCreateResponse carries the result code and the new stream handle.
type StreamCreateResponse struct {
	Err    uint32
	Stream uint32
}

// Encode implements Message.
func (m *StreamCreateResponse) Encode(dst []byte) []byte {
	return putU32(putU32(dst, m.Err), m.Stream)
}

// WireSize implements Message.
func (m *StreamCreateResponse) WireSize() int { return 8 }

// DecodeStreamCreateResponse parses a stream-creation response.
func DecodeStreamCreateResponse(b []byte) (*StreamCreateResponse, error) {
	if len(b) != 8 {
		return nil, ErrShortMessage
	}
	return &StreamCreateResponse{Err: getU32(b, 0), Stream: getU32(b, 4)}, nil
}

// StreamOpRequest is a destroy, synchronize or query request on one stream:
// id (4) + stream (4) = 8 bytes. The query (cudaStreamQuery) never blocks:
// its bare result code is cudaSuccess when the stream has drained and
// cudaErrorNotReady while work is pending.
type StreamOpRequest struct {
	Code   Op // OpStreamDestroy, OpStreamSynchronize or OpStreamQuery
	Stream uint32
}

// Encode implements Message.
func (m *StreamOpRequest) Encode(dst []byte) []byte {
	return putU32(putU32(dst, uint32(m.Code)), m.Stream)
}

// WireSize implements Message.
func (m *StreamOpRequest) WireSize() int { return 8 }

// Op implements Request.
func (m *StreamOpRequest) Op() Op { return m.Code }

// --- Asynchronous memory copies ----------------------------------------------

// MemcpyToDeviceAsyncRequest is the host-to-device copy with a stream:
// id (4) + dst (4) + src (4) + size (4) + kind (4) + stream (4) + data (x)
// = x+24 bytes.
type MemcpyToDeviceAsyncRequest struct {
	Dst    uint32
	Src    uint32
	Stream uint32
	Data   []byte
}

// Encode implements Message.
func (m *MemcpyToDeviceAsyncRequest) Encode(dst []byte) []byte {
	dst = m.SegmentHead(dst)
	return append(dst, m.Data...)
}

// WireSize implements Message.
func (m *MemcpyToDeviceAsyncRequest) WireSize() int { return 24 + len(m.Data) }

// Op implements Request.
func (m *MemcpyToDeviceAsyncRequest) Op() Op { return OpMemcpyToDeviceAsync }

// CopyBytes is the size of the copy, for the scheduler's cost estimate.
func (m *MemcpyToDeviceAsyncRequest) CopyBytes() int { return len(m.Data) }

// SegmentHead implements Segmented.
func (m *MemcpyToDeviceAsyncRequest) SegmentHead(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMemcpyToDeviceAsync))
	dst = putU32(dst, m.Dst)
	dst = putU32(dst, m.Src)
	dst = putU32(dst, uint32(len(m.Data)))
	dst = putU32(dst, KindHostToDevice)
	return putU32(dst, m.Stream)
}

// SegmentBulk implements Segmented.
func (m *MemcpyToDeviceAsyncRequest) SegmentBulk() []byte { return m.Data }

// SegmentTail implements Segmented.
func (m *MemcpyToDeviceAsyncRequest) SegmentTail(dst []byte) []byte { return dst }

// MemcpyToHostAsyncRequest is the device-to-host copy with a stream:
// id (4) + dst (4) + src (4) + size (4) + kind (4) + stream (4) = 24 bytes.
type MemcpyToHostAsyncRequest struct {
	Dst    uint32
	Src    uint32
	Size   uint32
	Stream uint32
}

// Encode implements Message.
func (m *MemcpyToHostAsyncRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMemcpyToHostAsync))
	dst = putU32(dst, m.Dst)
	dst = putU32(dst, m.Src)
	dst = putU32(dst, m.Size)
	dst = putU32(dst, KindDeviceToHost)
	return putU32(dst, m.Stream)
}

// WireSize implements Message.
func (m *MemcpyToHostAsyncRequest) WireSize() int { return 24 }

// Op implements Request.
func (m *MemcpyToHostAsyncRequest) Op() Op { return OpMemcpyToHostAsync }

// CopyBytes is the size of the copy, for the scheduler's cost estimate.
func (m *MemcpyToHostAsyncRequest) CopyBytes() int { return int(m.Size) }

// --- Events -------------------------------------------------------------------

// EventCreateRequest allocates an event: 4 bytes.
type EventCreateRequest struct{}

// Encode implements Message.
func (m *EventCreateRequest) Encode(dst []byte) []byte { return putU32(dst, uint32(OpEventCreate)) }

// WireSize implements Message.
func (m *EventCreateRequest) WireSize() int { return 4 }

// Op implements Request.
func (m *EventCreateRequest) Op() Op { return OpEventCreate }

// EventCreateResponse carries the result code and the new event handle.
type EventCreateResponse struct {
	Err   uint32
	Event uint32
}

// Encode implements Message.
func (m *EventCreateResponse) Encode(dst []byte) []byte {
	return putU32(putU32(dst, m.Err), m.Event)
}

// WireSize implements Message.
func (m *EventCreateResponse) WireSize() int { return 8 }

// DecodeEventCreateResponse parses an event-creation response.
func DecodeEventCreateResponse(b []byte) (*EventCreateResponse, error) {
	if len(b) != 8 {
		return nil, ErrShortMessage
	}
	return &EventCreateResponse{Err: getU32(b, 0), Event: getU32(b, 4)}, nil
}

// EventRecordRequest records an event on a stream: id (4) + event (4) +
// stream (4) = 12 bytes.
type EventRecordRequest struct {
	Event  uint32
	Stream uint32
}

// Encode implements Message.
func (m *EventRecordRequest) Encode(dst []byte) []byte {
	return putU32(putU32(putU32(dst, uint32(OpEventRecord)), m.Event), m.Stream)
}

// WireSize implements Message.
func (m *EventRecordRequest) WireSize() int { return 12 }

// Op implements Request.
func (m *EventRecordRequest) Op() Op { return OpEventRecord }

// EventOpRequest is a synchronize, destroy or query request on one event:
// id (4) + event (4) = 8 bytes; cudaEventQuery answers like cudaStreamQuery.
type EventOpRequest struct {
	Code  Op // OpEventSynchronize, OpEventDestroy or OpEventQuery
	Event uint32
}

// Encode implements Message.
func (m *EventOpRequest) Encode(dst []byte) []byte {
	return putU32(putU32(dst, uint32(m.Code)), m.Event)
}

// WireSize implements Message.
func (m *EventOpRequest) WireSize() int { return 8 }

// Op implements Request.
func (m *EventOpRequest) Op() Op { return m.Code }

// EventElapsedRequest queries the time between two events: id (4) +
// start (4) + end (4) = 12 bytes.
type EventElapsedRequest struct {
	Start uint32
	End   uint32
}

// Encode implements Message.
func (m *EventElapsedRequest) Encode(dst []byte) []byte {
	return putU32(putU32(putU32(dst, uint32(OpEventElapsed)), m.Start), m.End)
}

// WireSize implements Message.
func (m *EventElapsedRequest) WireSize() int { return 12 }

// Op implements Request.
func (m *EventElapsedRequest) Op() Op { return OpEventElapsed }

// EventElapsedResponse carries the result code and the elapsed time in
// nanoseconds: 4 + 8 = 12 bytes.
type EventElapsedResponse struct {
	Err         uint32
	ElapsedNano uint64
}

// Encode implements Message.
func (m *EventElapsedResponse) Encode(dst []byte) []byte {
	dst = putU32(dst, m.Err)
	dst = append(dst,
		byte(m.ElapsedNano), byte(m.ElapsedNano>>8), byte(m.ElapsedNano>>16), byte(m.ElapsedNano>>24),
		byte(m.ElapsedNano>>32), byte(m.ElapsedNano>>40), byte(m.ElapsedNano>>48), byte(m.ElapsedNano>>56))
	return dst
}

// WireSize implements Message.
func (m *EventElapsedResponse) WireSize() int { return 12 }

// DecodeEventElapsedResponse parses an elapsed-time response.
func DecodeEventElapsedResponse(b []byte) (*EventElapsedResponse, error) {
	if len(b) != 12 {
		return nil, ErrShortMessage
	}
	var n uint64
	for i := 0; i < 8; i++ {
		n |= uint64(b[4+i]) << (8 * i)
	}
	return &EventElapsedResponse{Err: getU32(b, 0), ElapsedNano: n}, nil
}

// The decoders of the stream, asynchronous-copy and event rows of the op
// table (ops.go). The stream and event operations that share a message
// shape share a decoder, which keeps the code the frame led with.

func decodeStreamCreate(*Decoder, []byte) (Request, error) { return &StreamCreateRequest{}, nil }
func decodeEventCreate(*Decoder, []byte) (Request, error)  { return &EventCreateRequest{}, nil }

func decodeStreamOp(d *Decoder, b []byte) (Request, error) {
	return keep(d, &d.streamOp, StreamOpRequest{Code: Op(getU32(b, 0)), Stream: getU32(b, 4)}), nil
}

func decodeEventOp(d *Decoder, b []byte) (Request, error) {
	return keep(d, &d.eventOp, EventOpRequest{Code: Op(getU32(b, 0)), Event: getU32(b, 4)}), nil
}

func decodeEventRecord(d *Decoder, b []byte) (Request, error) {
	return keep(d, &d.eventRecord, EventRecordRequest{Event: getU32(b, 4), Stream: getU32(b, 8)}), nil
}

func decodeEventElapsed(d *Decoder, b []byte) (Request, error) {
	return keep(d, &d.eventElapsed, EventElapsedRequest{Start: getU32(b, 4), End: getU32(b, 8)}), nil
}

func decodeMemcpyToDeviceAsync(d *Decoder, b []byte) (Request, error) {
	if len(b) < 24 {
		return nil, ErrShortMessage
	}
	size := int(getU32(b, 12))
	if kind := getU32(b, 16); kind != KindHostToDevice {
		return nil, fmt.Errorf("protocol: async memcpy-to-device with kind %d", kind)
	}
	if len(b) != 24+size {
		return nil, fmt.Errorf("protocol: async memcpy size %d does not match payload %d", size, len(b)-24)
	}
	// Data aliases b; see decodeMemcpyToDevice for the ownership contract.
	return keep(d, &d.toDeviceAsync, MemcpyToDeviceAsyncRequest{
		Dst: getU32(b, 4), Src: getU32(b, 8), Stream: getU32(b, 20), Data: b[24:],
	}), nil
}

func decodeMemcpyToHostAsync(d *Decoder, b []byte) (Request, error) {
	if kind := getU32(b, 16); kind != KindDeviceToHost {
		return nil, fmt.Errorf("protocol: async memcpy-to-host with kind %d", kind)
	}
	return keep(d, &d.toHostAsync, MemcpyToHostAsyncRequest{
		Dst: getU32(b, 4), Src: getU32(b, 8), Size: getU32(b, 12), Stream: getU32(b, 20),
	}), nil
}
