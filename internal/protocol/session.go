package protocol

import (
	"encoding/binary"
	"fmt"
)

// This file defines the durable-session extension behind the client's
// retry/reconnect policy. The base protocol ties a session's lifetime to
// its TCP connection: when the connection dies, the server destroys the
// GPU contexts and every allocation with it. That makes any transient
// network fault fatal to the application.
//
// A client that wants to survive faults sends SessionHello right after the
// init handshake. The server then assigns the session a stable identifier
// and, if the connection later dies without a clean Finalize, parks the
// session — device handles and allocations intact — instead of destroying
// it. The client reconnects and opens the new connection with
// SessionReattach carrying that identifier as its *first* message, in
// place of the init payload; the server splices the parked state onto the
// new connection and the dialogue resumes where it broke.
//
// Both messages are strictly opt-in: a client that never sends
// SessionHello gets the paper's original connection-scoped lifetime, and
// the init wire format (Table I) is untouched.

func putU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func getU64(src []byte, off int) uint64 {
	return binary.LittleEndian.Uint64(src[off : off+8])
}

// --- Hello -------------------------------------------------------------------

// SessionHelloRequest asks the server to make the current session durable
// and, optionally, declares its scheduling class. Two encodings share the
// op: the legacy bare form, op (4) = 4 bytes, and the extended form,
// op (4) + class (4) + weight (4) = 12 bytes. A request whose Class and
// Weight are both zero encodes as the bare form, so old servers keep
// accepting default-class clients. Sent at most once, right after
// initialization (or after a reattach, to re-declare the class).
type SessionHelloRequest struct {
	// Class is a SchedClass code; SchedClassUnspecified (0) leaves the
	// server's default in place.
	Class uint32
	// Weight is the session's intra-class WFQ weight, 0 reading as 1;
	// bounded by MaxSchedWeight.
	Weight uint32
}

// Encode implements Message.
func (m *SessionHelloRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpSessionHello))
	if m.Class == SchedClassUnspecified && m.Weight == 0 {
		return dst
	}
	return putU32(putU32(dst, m.Class), m.Weight)
}

// WireSize implements Message.
func (m *SessionHelloRequest) WireSize() int {
	if m.Class == SchedClassUnspecified && m.Weight == 0 {
		return 4
	}
	return 12
}

// Op implements Request.
func (m *SessionHelloRequest) Op() Op { return OpSessionHello }

// SessionHelloResponse returns the durable session identifier: CUDA error
// (4) + session id (8) = 12 bytes.
type SessionHelloResponse struct {
	Err     uint32
	Session uint64
}

// Encode implements Message.
func (m *SessionHelloResponse) Encode(dst []byte) []byte {
	return putU64(putU32(dst, m.Err), m.Session)
}

// WireSize implements Message.
func (m *SessionHelloResponse) WireSize() int { return 12 }

// DecodeSessionHelloResponse parses a hello acknowledgement.
func DecodeSessionHelloResponse(b []byte) (*SessionHelloResponse, error) {
	if len(b) != 12 {
		return nil, ErrShortMessage
	}
	return &SessionHelloResponse{Err: getU32(b, 0), Session: getU64(b, 4)}, nil
}

// --- Reattach ----------------------------------------------------------------

// ReattachRequest opens a replacement connection for a parked durable
// session: op (4) + session id (8) = 12 bytes. It is sent as the first
// message of the new connection, where the init payload would otherwise
// go; TryDecodeReattach distinguishes the two unambiguously because an
// init payload of 12 bytes would declare a module-name length equal to
// this op code, far beyond the 8-byte remainder.
type ReattachRequest struct {
	Session uint64
}

// Encode implements Message.
func (m *ReattachRequest) Encode(dst []byte) []byte {
	return putU64(putU32(dst, uint32(OpSessionReattach)), m.Session)
}

// WireSize implements Message.
func (m *ReattachRequest) WireSize() int { return 12 }

// Op implements Request.
func (m *ReattachRequest) Op() Op { return OpSessionReattach }

// TryDecodeReattach reports whether b is a reattach request and, if so,
// decodes it. Handshake code calls it on the first payload of a
// connection before falling back to the init decoder.
func TryDecodeReattach(b []byte) (*ReattachRequest, bool) {
	if len(b) != 12 || Op(getU32(b, 0)) != OpSessionReattach {
		return nil, false
	}
	return &ReattachRequest{Session: getU64(b, 4)}, true
}

// ReattachResponse accepts or rejects a reattach: CUDA error (4) +
// capability major (4) + capability minor (4) = 12 bytes. The capability
// pair repeats the init handshake's so a reattaching client can confirm it
// reached a compatible server.
type ReattachResponse struct {
	Err             uint32
	CapabilityMajor uint32
	CapabilityMinor uint32
}

// Encode implements Message.
func (m *ReattachResponse) Encode(dst []byte) []byte {
	return putU32(putU32(putU32(dst, m.Err), m.CapabilityMajor), m.CapabilityMinor)
}

// WireSize implements Message.
func (m *ReattachResponse) WireSize() int { return 12 }

// DecodeReattachResponse parses a reattach acknowledgement.
func DecodeReattachResponse(b []byte) (*ReattachResponse, error) {
	if len(b) != 12 {
		return nil, ErrShortMessage
	}
	return &ReattachResponse{
		Err:             getU32(b, 0),
		CapabilityMajor: getU32(b, 4),
		CapabilityMinor: getU32(b, 8),
	}, nil
}

// The decoders of the session rows of the op table (ops.go).

func decodeSessionHello(d *Decoder, b []byte) (Request, error) {
	switch len(b) {
	case 4:
		return hold(d, &d.hello, SessionHelloRequest{}), nil
	case 12:
		m := SessionHelloRequest{Class: getU32(b, 4), Weight: getU32(b, 8)}
		if m.Class > maxSchedClass {
			return nil, fmt.Errorf("%w: class %d", ErrBadSchedClass, m.Class)
		}
		if m.Weight > MaxSchedWeight {
			return nil, fmt.Errorf("%w: weight %d", ErrBadSchedWeight, m.Weight)
		}
		if m.Class == SchedClassUnspecified && m.Weight == 0 {
			// The all-defaults pair has exactly one canonical spelling:
			// the bare form.
			return nil, fmt.Errorf("protocol: non-canonical extended hello")
		}
		return hold(d, &d.hello, m), nil
	default:
		return nil, ErrShortMessage
	}
}

func decodeReattach(_ *Decoder, b []byte) (Request, error) {
	return &ReattachRequest{Session: getU64(b, 4)}, nil
}
