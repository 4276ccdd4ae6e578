package protocol

import "fmt"

// Device-management and device-side memory operations: cudaGetDeviceCount,
// cudaSetDevice, cudaGetDeviceProperties, cudaMemset, and device-to-device
// cudaMemcpy. Figure 1 of the paper shows server nodes owning several
// accelerators, so the middleware must let a client discover and select
// among the server's devices.

// --- cudaGetDeviceCount -------------------------------------------------------

// GetDeviceCountRequest asks how many GPUs the server owns: 4 bytes.
type GetDeviceCountRequest struct{}

// Encode implements Message.
func (m *GetDeviceCountRequest) Encode(dst []byte) []byte {
	return putU32(dst, uint32(OpGetDeviceCount))
}

// WireSize implements Message.
func (m *GetDeviceCountRequest) WireSize() int { return 4 }

// Op implements Request.
func (m *GetDeviceCountRequest) Op() Op { return OpGetDeviceCount }

// GetDeviceCountResponse carries the result code and the device count.
type GetDeviceCountResponse struct {
	Err   uint32
	Count uint32
}

// Encode implements Message.
func (m *GetDeviceCountResponse) Encode(dst []byte) []byte {
	return putU32(putU32(dst, m.Err), m.Count)
}

// WireSize implements Message.
func (m *GetDeviceCountResponse) WireSize() int { return 8 }

// DecodeGetDeviceCountResponse parses a device-count response.
func DecodeGetDeviceCountResponse(b []byte) (*GetDeviceCountResponse, error) {
	if len(b) != 8 {
		return nil, ErrShortMessage
	}
	return &GetDeviceCountResponse{Err: getU32(b, 0), Count: getU32(b, 4)}, nil
}

// --- cudaSetDevice -------------------------------------------------------------

// SetDeviceRequest selects the session's current device: id (4) +
// device (4) = 8 bytes.
type SetDeviceRequest struct {
	Device uint32
}

// Encode implements Message.
func (m *SetDeviceRequest) Encode(dst []byte) []byte {
	return putU32(putU32(dst, uint32(OpSetDevice)), m.Device)
}

// WireSize implements Message.
func (m *SetDeviceRequest) WireSize() int { return 8 }

// Op implements Request.
func (m *SetDeviceRequest) Op() Op { return OpSetDevice }

// --- cudaGetDeviceProperties -----------------------------------------------------

// GetDevicePropertiesRequest asks for the current device's description:
// 4 bytes.
type GetDevicePropertiesRequest struct{}

// Encode implements Message.
func (m *GetDevicePropertiesRequest) Encode(dst []byte) []byte {
	return putU32(dst, uint32(OpGetDeviceProperties))
}

// WireSize implements Message.
func (m *GetDevicePropertiesRequest) WireSize() int { return 4 }

// Op implements Request.
func (m *GetDevicePropertiesRequest) Op() Op { return OpGetDeviceProperties }

// GetDevicePropertiesResponse carries the result code and the device
// description: err (4) + mem (8) + major (4) + minor (4) + SMs (4) +
// clock (4) + membw (4) + name length (4) + name (x).
type GetDevicePropertiesResponse struct {
	Err             uint32
	MemoryBytes     uint64
	CapabilityMajor uint32
	CapabilityMinor uint32
	Multiprocessors uint32
	ClockMHz        uint32
	MemoryMBps      uint32
	Name            string
}

// Encode implements Message.
func (m *GetDevicePropertiesResponse) Encode(dst []byte) []byte {
	dst = putU32(dst, m.Err)
	dst = putU32(dst, uint32(m.MemoryBytes))
	dst = putU32(dst, uint32(m.MemoryBytes>>32))
	dst = putU32(dst, m.CapabilityMajor)
	dst = putU32(dst, m.CapabilityMinor)
	dst = putU32(dst, m.Multiprocessors)
	dst = putU32(dst, m.ClockMHz)
	dst = putU32(dst, m.MemoryMBps)
	dst = putU32(dst, uint32(len(m.Name)))
	return append(dst, m.Name...)
}

// WireSize implements Message.
func (m *GetDevicePropertiesResponse) WireSize() int { return 36 + len(m.Name) }

// DecodeGetDevicePropertiesResponse parses a device-properties response.
func DecodeGetDevicePropertiesResponse(b []byte) (*GetDevicePropertiesResponse, error) {
	if len(b) < 36 {
		return nil, ErrShortMessage
	}
	n := int(getU32(b, 32))
	if len(b) != 36+n {
		return nil, fmt.Errorf("protocol: properties name length %d does not match payload %d", n, len(b)-36)
	}
	return &GetDevicePropertiesResponse{
		Err:             getU32(b, 0),
		MemoryBytes:     uint64(getU32(b, 4)) | uint64(getU32(b, 8))<<32,
		CapabilityMajor: getU32(b, 12),
		CapabilityMinor: getU32(b, 16),
		Multiprocessors: getU32(b, 20),
		ClockMHz:        getU32(b, 24),
		MemoryMBps:      getU32(b, 28),
		Name:            string(b[36:]),
	}, nil
}

// --- cudaMemset ----------------------------------------------------------------

// MemsetRequest fills device memory: id (4) + pointer (4) + value (4) +
// size (4) = 16 bytes.
type MemsetRequest struct {
	DevPtr uint32
	Value  uint32 // low byte is the fill value, as in cudaMemset's int arg
	Size   uint32
}

// Encode implements Message.
func (m *MemsetRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMemset))
	dst = putU32(dst, m.DevPtr)
	dst = putU32(dst, m.Value)
	return putU32(dst, m.Size)
}

// WireSize implements Message.
func (m *MemsetRequest) WireSize() int { return 16 }

// Op implements Request.
func (m *MemsetRequest) Op() Op { return OpMemset }

// CopyBytes is the size of the fill, for the scheduler's cost estimate.
func (m *MemsetRequest) CopyBytes() int { return int(m.Size) }

// --- device-to-device cudaMemcpy ---------------------------------------------------

// MemcpyD2DRequest copies within device memory: id (4) + dst (4) + src (4)
// + size (4) = 16 bytes. No bulk payload crosses the network — the chief
// attraction of keeping intermediate results on the remote GPU.
type MemcpyD2DRequest struct {
	Dst  uint32
	Src  uint32
	Size uint32
}

// Encode implements Message.
func (m *MemcpyD2DRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMemcpyDeviceToDevice))
	dst = putU32(dst, m.Dst)
	dst = putU32(dst, m.Src)
	return putU32(dst, m.Size)
}

// WireSize implements Message.
func (m *MemcpyD2DRequest) WireSize() int { return 16 }

// Op implements Request.
func (m *MemcpyD2DRequest) Op() Op { return OpMemcpyDeviceToDevice }

// CopyBytes is the size of the copy, for the scheduler's cost estimate.
func (m *MemcpyD2DRequest) CopyBytes() int { return int(m.Size) }

// The decoders of the device-management rows of the op table (ops.go).

func decodeGetDeviceCount(*Decoder, []byte) (Request, error) { return &GetDeviceCountRequest{}, nil }
func decodeGetDeviceProperties(*Decoder, []byte) (Request, error) {
	return &GetDevicePropertiesRequest{}, nil
}

func decodeSetDevice(d *Decoder, b []byte) (Request, error) {
	return keep(d, &d.setDevice, SetDeviceRequest{Device: getU32(b, 4)}), nil
}

func decodeMemset(d *Decoder, b []byte) (Request, error) {
	return keep(d, &d.memset, MemsetRequest{DevPtr: getU32(b, 4), Value: getU32(b, 8), Size: getU32(b, 12)}), nil
}

func decodeMemcpyD2D(d *Decoder, b []byte) (Request, error) {
	return keep(d, &d.d2d, MemcpyD2DRequest{Dst: getU32(b, 4), Src: getU32(b, 8), Size: getU32(b, 12)}), nil
}
