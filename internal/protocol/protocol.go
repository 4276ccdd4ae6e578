// Package protocol defines the rCUDA wire format.
//
// The client sends one message per CUDA Runtime API call. As in the paper,
// "the first 32 bits of the request identify the specific CUDA function
// called, while the subsequent data is function-dependent"; the server
// "always sends a 32-bit result code of the operation, and possibly more
// data depending on each particular function". The byte-level breakdown of
// every message reproduces Table I of the paper exactly; TableI() derives
// the table from the encoders themselves so a unit test can assert it.
//
// One operation is special: the initialization message is the first message
// on a fresh connection and carries no function identifier — the server
// recognizes it positionally, replies with the device compute capability
// (8 bytes) and a result code, and only then enters the request loop.
//
// All integers are little-endian. Device pointers are 32-bit, as in the
// CUDA 2.3 / Tesla C1060 (4 GB) era the paper targets. Messages travel in
// length-prefixed frames (see frame.go); the 4-byte frame header is
// transport overhead, already included in the measured per-message latency
// curves, and is not part of the Table I accounting.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Memcpy kinds, matching the CUDA Runtime API enumeration.
const (
	KindHostToDevice uint32 = 1
	KindDeviceToHost uint32 = 2
)

// Errors returned by decoders.
var (
	ErrShortMessage = errors.New("protocol: message too short")
	ErrBadOp        = errors.New("protocol: unexpected operation code")
	errNoNUL        = errors.New("protocol: kernel name not NUL-terminated")
)

// Message is any encodable request or response.
type Message interface {
	// Encode appends the wire representation to dst and returns it.
	Encode(dst []byte) []byte
	// WireSize returns the encoded size in bytes (the Table I total).
	WireSize() int
}

func putU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func getU32(src []byte, off int) uint32 {
	return binary.LittleEndian.Uint32(src[off : off+4])
}

// --- Initialization -------------------------------------------------------

// InitRequest is the connection's opening message: the size-prefixed GPU
// module (kernel code and statically allocated variables). Table I: send
// Size (4) + Module (x) = x+4 bytes.
type InitRequest struct {
	Module []byte
}

// Encode implements Message.
func (m *InitRequest) Encode(dst []byte) []byte {
	dst = m.SegmentHead(dst)
	return append(dst, m.Module...)
}

// WireSize implements Message.
func (m *InitRequest) WireSize() int { return 4 + len(m.Module) }

// SegmentHead implements Segmented.
func (m *InitRequest) SegmentHead(dst []byte) []byte { return putU32(dst, uint32(len(m.Module))) }

// SegmentBulk implements Segmented.
func (m *InitRequest) SegmentBulk() []byte { return m.Module }

// SegmentTail implements Segmented.
func (m *InitRequest) SegmentTail(dst []byte) []byte { return dst }

// DecodeInitRequest parses an initialization request. Module aliases b: it
// is valid until the connection's next receive, like
// MemcpyToDeviceRequest.Data.
func DecodeInitRequest(b []byte) (InitRequest, error) {
	if len(b) < 4 {
		return InitRequest{}, ErrShortMessage
	}
	n := int(getU32(b, 0))
	if len(b) != 4+n {
		return InitRequest{}, fmt.Errorf("protocol: init module length %d does not match payload %d", n, len(b)-4)
	}
	return InitRequest{Module: b[4:]}, nil
}

// InitResponse carries the device compute capability and the result code.
// Table I: receive Compute capability (8) + CUDA error (4) = 12 bytes.
type InitResponse struct {
	CapabilityMajor uint32
	CapabilityMinor uint32
	Err             uint32
}

// Encode implements Message.
func (m *InitResponse) Encode(dst []byte) []byte {
	dst = putU32(dst, m.CapabilityMajor)
	dst = putU32(dst, m.CapabilityMinor)
	return putU32(dst, m.Err)
}

// WireSize implements Message.
func (m *InitResponse) WireSize() int { return 12 }

// DecodeInitResponse parses an initialization response.
func DecodeInitResponse(b []byte) (*InitResponse, error) {
	if len(b) != 12 {
		return nil, ErrShortMessage
	}
	return &InitResponse{
		CapabilityMajor: getU32(b, 0),
		CapabilityMinor: getU32(b, 4),
		Err:             getU32(b, 8),
	}, nil
}

// --- cudaMalloc -----------------------------------------------------------

// MallocRequest asks the server to allocate device memory. Table I: send
// Function id. (4) + Size (4) = 8 bytes.
type MallocRequest struct {
	Size uint32
}

// Encode implements Message.
func (m *MallocRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMalloc))
	return putU32(dst, m.Size)
}

// WireSize implements Message.
func (m *MallocRequest) WireSize() int { return 8 }

// MallocResponse returns the result code and the new device pointer.
// Table I: receive CUDA error (4) + Device pointer (4) = 8 bytes.
type MallocResponse struct {
	Err    uint32
	DevPtr uint32
}

// Encode implements Message.
func (m *MallocResponse) Encode(dst []byte) []byte {
	dst = putU32(dst, m.Err)
	return putU32(dst, m.DevPtr)
}

// WireSize implements Message.
func (m *MallocResponse) WireSize() int { return 8 }

// DecodeMallocResponse parses a cudaMalloc response.
func DecodeMallocResponse(b []byte) (*MallocResponse, error) {
	if len(b) != 8 {
		return nil, ErrShortMessage
	}
	return &MallocResponse{Err: getU32(b, 0), DevPtr: getU32(b, 4)}, nil
}

// --- cudaMemcpy -----------------------------------------------------------

// MemcpyToDeviceRequest moves host data into device memory. Table I: send
// Function id. (4) + Destination (4) + Source (4) + Size (4) + Kind (4) +
// Data (x) = x+20 bytes.
type MemcpyToDeviceRequest struct {
	Dst  uint32 // device pointer
	Src  uint32 // client-side host address tag (opaque to the server)
	Data []byte
}

// Encode implements Message.
func (m *MemcpyToDeviceRequest) Encode(dst []byte) []byte {
	dst = m.SegmentHead(dst)
	return append(dst, m.Data...)
}

// WireSize implements Message.
func (m *MemcpyToDeviceRequest) WireSize() int { return 20 + len(m.Data) }

// SegmentHead implements Segmented.
func (m *MemcpyToDeviceRequest) SegmentHead(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMemcpyToDevice))
	dst = putU32(dst, m.Dst)
	dst = putU32(dst, m.Src)
	dst = putU32(dst, uint32(len(m.Data)))
	return putU32(dst, KindHostToDevice)
}

// SegmentBulk implements Segmented.
func (m *MemcpyToDeviceRequest) SegmentBulk() []byte { return m.Data }

// SegmentTail implements Segmented.
func (m *MemcpyToDeviceRequest) SegmentTail(dst []byte) []byte { return dst }

// memcpyToDeviceHeadSize is the fixed part of a MemcpyToDeviceRequest that
// precedes its data.
const memcpyToDeviceHeadSize = 20

// PeekMemcpyToDevice reads the head of a frame of frameLen bytes that is
// still arriving, peek being its leading bytes. ok reports that the frame is
// a well-formed cudaMemcpy to device — operation, kind, and a declared size
// that accounts for exactly the rest of the frame, the checks DecodeRequest
// makes on a whole frame — so that a transport may land the size bytes
// following the head in device memory at dst. Whether dst is memory the
// session may write is the caller's check.
func PeekMemcpyToDevice(frameLen int, peek []byte) (dst uint32, size int, ok bool) {
	if len(peek) < memcpyToDeviceHeadSize ||
		Op(getU32(peek, 0)) != OpMemcpyToDevice || getU32(peek, 16) != KindHostToDevice {
		return 0, 0, false
	}
	size = int(getU32(peek, 12))
	return getU32(peek, 4), size, frameLen == memcpyToDeviceHeadSize+size
}

// DecodeLanded parses a cudaMemcpy to device whose data a transport landed
// apart from the frame: head is what was received of the frame itself, data
// the landed bytes, which the request aliases — for the server, device
// memory.
func (d *Decoder) DecodeLanded(head, data []byte) (*MemcpyToDeviceRequest, error) {
	if _, _, ok := PeekMemcpyToDevice(len(head)+len(data), head); !ok || len(head) != memcpyToDeviceHeadSize {
		return nil, fmt.Errorf("protocol: %d bytes landed behind a %d-byte head that is no memcpy to device", len(data), len(head))
	}
	return keep(d, &d.toDevice, MemcpyToDeviceRequest{Dst: getU32(head, 4), Src: getU32(head, 8), Data: data}), nil
}

// MemcpyToHostRequest asks for device data. Table I: send Function id. (4) +
// Destination (4) + Source (4) + Size (4) + Kind (4) = 20 bytes.
type MemcpyToHostRequest struct {
	Dst  uint32 // client-side host address tag (opaque to the server)
	Src  uint32 // device pointer
	Size uint32
}

// Encode implements Message.
func (m *MemcpyToHostRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMemcpyToHost))
	dst = putU32(dst, m.Dst)
	dst = putU32(dst, m.Src)
	dst = putU32(dst, m.Size)
	return putU32(dst, KindDeviceToHost)
}

// WireSize implements Message.
func (m *MemcpyToHostRequest) WireSize() int { return 20 }

// MemcpyToHostResponse returns the data followed by the result code.
// Table I: receive Data (x) + CUDA error (4) = x+4 bytes.
type MemcpyToHostResponse struct {
	Data []byte
	Err  uint32
}

// Encode implements Message.
func (m *MemcpyToHostResponse) Encode(dst []byte) []byte {
	dst = append(dst, m.Data...)
	return putU32(dst, m.Err)
}

// WireSize implements Message.
func (m *MemcpyToHostResponse) WireSize() int { return len(m.Data) + 4 }

// SegmentHead implements Segmented.
func (m *MemcpyToHostResponse) SegmentHead(dst []byte) []byte { return dst }

// SegmentBulk implements Segmented.
func (m *MemcpyToHostResponse) SegmentBulk() []byte { return m.Data }

// SegmentTail implements Segmented.
func (m *MemcpyToHostResponse) SegmentTail(dst []byte) []byte { return putU32(dst, m.Err) }

// DecodeMemcpyToHostResponseInto parses a device-to-host memcpy response,
// copying the payload directly into dst — the caller's destination buffer —
// with no intermediate allocation. The payload must be empty (an error
// reply carries no data) or exactly len(dst) bytes. When a transport
// already landed the data, b is the trailing result code alone and dst the
// empty remainder of the destination. It returns the CUDA
// result code; callers must inspect a nonzero code before faulting on a
// payload-length mismatch.
func DecodeMemcpyToHostResponseInto(b, dst []byte) (code uint32, err error) {
	if len(b) < 4 {
		return 0, ErrShortMessage
	}
	data := b[:len(b)-4]
	code = getU32(b, len(b)-4)
	if code != 0 && len(data) == 0 {
		return code, nil
	}
	if len(data) != len(dst) {
		return code, fmt.Errorf("protocol: memcpy-to-host payload %d bytes, want %d", len(data), len(dst))
	}
	copy(dst, data)
	return code, nil
}

// --- cudaLaunch -----------------------------------------------------------

// LaunchRequest executes a kernel. Table I: send Function id. (4) + Texture
// offset (4) + Parameters offset (4) + Number of textures (4) + Block
// dimension (12) + Grid dimension (8) + Shared size (4) + Stream (4) +
// Kernel name (x) = x+44 bytes. The variable region x holds the
// NUL-terminated kernel name followed by the packed parameter block;
// ParamsOffset locates the parameters within the region, exactly what the
// "Parameters offset" field is for. The Params of a decoded request alias
// the frame it was decoded from, like MemcpyToDeviceRequest.Data.
type LaunchRequest struct {
	TextureOffset uint32
	NumTextures   uint32
	BlockDim      [3]uint32
	GridDim       [2]uint32
	SharedSize    uint32
	Stream        uint32
	Name          string
	Params        []byte
}

// paramsOffset returns the offset of the parameter block inside the
// variable region: just past the NUL-terminated name.
func (m *LaunchRequest) paramsOffset() uint32 { return uint32(len(m.Name) + 1) }

// Encode implements Message.
func (m *LaunchRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpLaunch))
	dst = putU32(dst, m.TextureOffset)
	dst = putU32(dst, m.paramsOffset())
	dst = putU32(dst, m.NumTextures)
	for _, d := range m.BlockDim {
		dst = putU32(dst, d)
	}
	for _, d := range m.GridDim {
		dst = putU32(dst, d)
	}
	dst = putU32(dst, m.SharedSize)
	dst = putU32(dst, m.Stream)
	dst = append(dst, m.Name...)
	dst = append(dst, 0)
	return append(dst, m.Params...)
}

// WireSize implements Message.
func (m *LaunchRequest) WireSize() int { return 44 + len(m.Name) + 1 + len(m.Params) }

// --- cudaFree -------------------------------------------------------------

// FreeRequest releases device memory. Table I: send Function id. (4) +
// Device pointer (4) = 8 bytes.
type FreeRequest struct {
	DevPtr uint32
}

// Encode implements Message.
func (m *FreeRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpFree))
	return putU32(dst, m.DevPtr)
}

// WireSize implements Message.
func (m *FreeRequest) WireSize() int { return 8 }

// --- cudaDeviceSynchronize (extension beyond Table I) ----------------------

// SyncRequest blocks until all preceding device work completes. Not listed
// in Table I; it follows the same shape as cudaFree without an argument.
type SyncRequest struct{}

// Encode implements Message.
func (m *SyncRequest) Encode(dst []byte) []byte { return putU32(dst, uint32(OpDeviceSynchronize)) }

// WireSize implements Message.
func (m *SyncRequest) WireSize() int { return 4 }

// --- Finalization ----------------------------------------------------------

// FinalizeRequest announces that the client is closing the session; the
// daemon quits servicing the current execution and releases its resources.
type FinalizeRequest struct{}

// Encode implements Message.
func (m *FinalizeRequest) Encode(dst []byte) []byte { return putU32(dst, uint32(OpFinalize)) }

// WireSize implements Message.
func (m *FinalizeRequest) WireSize() int { return 4 }

// --- Result-code replies -----------------------------------------------------

// CodeResponse is the reply of every operation that returns nothing but the
// 32-bit result code the server "always sends": Table I's receive column of
// cudaMemcpy to device, cudaLaunch and cudaFree, and every acknowledgement
// the extensions added — synchronize, set-device, memset, device-to-device
// copy, stream and event operations, the stream and migration begin/end
// statuses, the session-restore handshake.
type CodeResponse struct {
	Err uint32
}

// Encode implements Message.
func (m *CodeResponse) Encode(dst []byte) []byte { return putU32(dst, m.Err) }

// WireSize implements Message.
func (m *CodeResponse) WireSize() int { return 4 }

// DecodeCodeResponse parses a bare result-code reply and returns the code.
func DecodeCodeResponse(b []byte) (uint32, error) {
	if len(b) != 4 {
		return 0, ErrShortMessage
	}
	return getU32(b, 0), nil
}

// --- Request decoding on the server side -----------------------------------

// Op implementations for the request types.
func (m *MallocRequest) Op() Op         { return OpMalloc }
func (m *MemcpyToDeviceRequest) Op() Op { return OpMemcpyToDevice }
func (m *MemcpyToHostRequest) Op() Op   { return OpMemcpyToHost }
func (m *LaunchRequest) Op() Op         { return OpLaunch }
func (m *FreeRequest) Op() Op           { return OpFree }
func (m *SyncRequest) Op() Op           { return OpDeviceSynchronize }
func (m *FinalizeRequest) Op() Op       { return OpFinalize }

// CopyBytes is the size of the copy, for the scheduler's cost estimate.
func (m *MemcpyToDeviceRequest) CopyBytes() int { return len(m.Data) }

// CopyBytes is the size of the copy, for the scheduler's cost estimate.
func (m *MemcpyToHostRequest) CopyBytes() int { return int(m.Size) }

// The decoders of the op table's rows (ops.go). Decode has checked a
// fixed-size request's length before its decoder runs; each result lives
// where keep puts it (decoder.go).

func decodeMalloc(d *Decoder, b []byte) (Request, error) {
	return hold(d, &d.malloc, MallocRequest{Size: getU32(b, 4)}), nil
}

func decodeFree(d *Decoder, b []byte) (Request, error) {
	return hold(d, &d.free, FreeRequest{DevPtr: getU32(b, 4)}), nil
}

func decodeSync(*Decoder, []byte) (Request, error)     { return &SyncRequest{}, nil }
func decodeFinalize(*Decoder, []byte) (Request, error) { return &FinalizeRequest{}, nil }

func decodeMemcpyToDevice(d *Decoder, b []byte) (Request, error) {
	if len(b) < memcpyToDeviceHeadSize {
		return nil, ErrShortMessage
	}
	size := int(getU32(b, 12))
	if kind := getU32(b, 16); kind != KindHostToDevice {
		return nil, fmt.Errorf("protocol: memcpy-to-device with kind %d", kind)
	}
	if len(b) != memcpyToDeviceHeadSize+size {
		return nil, fmt.Errorf("protocol: memcpy size %d does not match payload %d", size, len(b)-memcpyToDeviceHeadSize)
	}
	// Data aliases b so bulk payloads decode without a copy; the caller
	// owns b until the request has been consumed (the server dispatches
	// each request before the next Recv reuses the frame buffer).
	return keep(d, &d.toDevice, MemcpyToDeviceRequest{Dst: getU32(b, 4), Src: getU32(b, 8), Data: b[memcpyToDeviceHeadSize:]}), nil
}

func decodeMemcpyToHost(d *Decoder, b []byte) (Request, error) {
	if kind := getU32(b, 16); kind != KindDeviceToHost {
		return nil, fmt.Errorf("protocol: memcpy-to-host with kind %d", kind)
	}
	return keep(d, &d.toHost, MemcpyToHostRequest{Dst: getU32(b, 4), Src: getU32(b, 8), Size: getU32(b, 12)}), nil
}

func decodeLaunch(d *Decoder, b []byte) (Request, error) {
	if len(b) < 45 { // header + at least the name's NUL
		return nil, ErrShortMessage
	}
	paramsOff := int(getU32(b, 8))
	blob := b[44:]
	if paramsOff < 1 || paramsOff > len(blob) {
		return nil, fmt.Errorf("protocol: launch parameters offset %d out of range %d", paramsOff, len(blob))
	}
	if blob[paramsOff-1] != 0 {
		return nil, errNoNUL
	}
	return keep(d, &d.launch, LaunchRequest{
		TextureOffset: getU32(b, 4),
		NumTextures:   getU32(b, 12),
		BlockDim:      [3]uint32{getU32(b, 16), getU32(b, 20), getU32(b, 24)},
		GridDim:       [2]uint32{getU32(b, 28), getU32(b, 32)},
		SharedSize:    getU32(b, 36),
		Stream:        getU32(b, 40),
		Name:          d.kernelName(blob[:paramsOff-1]),
		// Params aliases b under the same contract as a memcpy payload:
		// the caller owns b until the request has been consumed, and the
		// launch path only reads the block while the kernel runs.
		Params: blob[paramsOff:],
	}), nil
}
