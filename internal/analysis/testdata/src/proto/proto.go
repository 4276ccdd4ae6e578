// Package proto is the wiremsg and errcode fixture: a miniature wire
// protocol with deliberate gaps, each marked by a want comment.
package proto

import "errors"

// Op identifies a request on the wire.
type Op uint8

// OpPing is the fixture's one operation.
const OpPing Op = 1

// Rejection codes carried in reply frames.
const (
	// CodeBusy is classified by the fixture client and mapped to ErrBusy.
	CodeBusy uint32 = 1001
	// CodeLost is compared by the client but mapped to no sentinel.
	CodeLost uint32 = 1002 // want errcode "no branch maps it to a typed Err"
	// CodeIgnored is never classified at all.
	CodeIgnored uint32 = 1003 // want errcode "never classified"
)

// Message is one wire message: encodable with a declared size.
type Message interface {
	Encode(dst []byte) []byte
	WireSize() int
}

// Request is a client-to-server message.
type Request interface {
	Message
	Op() Op
}

// PingRequest is a request: DecodeRequest parses it, so it needs no
// DecodePingRequest of its own.
type PingRequest struct{}

func (r *PingRequest) Encode(dst []byte) []byte { return append(dst, byte(OpPing)) }
func (r *PingRequest) WireSize() int            { return 1 }
func (r *PingRequest) Op() Op                   { return OpPing }

// PongReply is a fully wired response.
type PongReply struct{ N uint32 }

func (r *PongReply) Encode(dst []byte) []byte { return append(dst, byte(r.N)) }
func (r *PongReply) WireSize() int            { return 1 }

// DecodePongReply parses a PongReply frame.
func DecodePongReply(b []byte) (*PongReply, error) {
	if len(b) != 1 {
		return nil, errors.New("proto: bad PongReply")
	}
	return &PongReply{N: uint32(b[0])}, nil
}

// LostReply has an encoder but no decoder at all.
type LostReply struct{} // want wiremsg "no DecodeLostReply/TryDecodeLostReply function"

func (r *LostReply) Encode(dst []byte) []byte { return dst }
func (r *LostReply) WireSize() int            { return 0 }

// NakedMsg encodes but never declares its wire size.
type NakedMsg struct{} // want wiremsg "Encode method but no WireSize"

func (m *NakedMsg) Encode(dst []byte) []byte { return dst }

// DecodeRequest parses one request frame: the op byte selects the type.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) == 0 || Op(b[0]) != OpPing {
		return nil, errors.New("proto: not a ping")
	}
	return &PingRequest{}, nil
}
