package protocol

import (
	"fmt"
	"hash/fnv"
)

// This file defines the live-migration extension: one daemon streams a
// serialized session (the Checkpoint) straight to another daemon over the
// chunked-transfer machinery, so a durable session can move between servers
// without the client relaying a byte. The dialogue on the daemon-to-daemon
// connection is:
//
//	source                          destination
//	  SessionRestore      ──────▶   reserve the session id + admission slot
//	             ◀──────  result code (abort here on refusal)
//	  MigrateBegin        ──────▶   size the checkpoint buffer
//	             ◀──────  result code
//	  Chunk 0..n-1        ──────▶   land in place (never individually acked)
//	  MigrateCommit       ──────▶   verify count + digest, materialize
//	             ◀──────  result code
//
// The chunks are Chunk frames of stream OpMigrateChunk, the chunked copy's
// frame under another id, and one ChunkAssembler checks both the count the
// commit declares and a copy's End.
//
// The client learns about the move lazily: a reattach at the old daemon is
// answered with CodeSessionMigrated (reject.go) and the broker has already
// re-pointed placement, so the next reconnect lands on the destination and
// resumes with zero replay — the batch seq-dedup window travels inside the
// checkpoint.

// --- SessionRestore handshake ----------------------------------------------

// SessionRestoreRequest is the first message of a daemon-to-daemon
// migration connection: id (4) + session (8) = 12 bytes. It asks the
// destination to reserve the session id and an admission slot before any
// checkpoint bytes move. Like the reattach handshake it is recognized by
// sniffing the connection's opening payload (TryDecodeSessionRestore).
type SessionRestoreRequest struct {
	Session uint64
}

// Encode implements Message.
func (m *SessionRestoreRequest) Encode(dst []byte) []byte {
	return putU64(putU32(dst, uint32(OpSessionRestore)), m.Session)
}

// WireSize implements Message.
func (m *SessionRestoreRequest) WireSize() int { return 12 }

// Op implements Request.
func (m *SessionRestoreRequest) Op() Op { return OpSessionRestore }

// TryDecodeSessionRestore reports whether a connection's first payload is a
// session-restore handshake. Exactly one 12-byte spelling qualifies, so the
// sniff can never confuse it with an initialization module, a reattach, or
// a stats query.
func TryDecodeSessionRestore(b []byte) (*SessionRestoreRequest, bool) {
	if len(b) != 12 || Op(getU32(b, 0)) != OpSessionRestore {
		return nil, false
	}
	return &SessionRestoreRequest{Session: getU64(b, 4)}, true
}

// --- Begin -------------------------------------------------------------------

// MigrateBeginRequest opens the checkpoint stream: id (4) + total size (4)
// + chunk size (4) = 12 bytes.
type MigrateBeginRequest struct {
	Total     uint32
	ChunkSize uint32
}

// Encode implements Message.
func (m *MigrateBeginRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMigrateBegin))
	dst = putU32(dst, m.Total)
	return putU32(dst, m.ChunkSize)
}

// WireSize implements Message.
func (m *MigrateBeginRequest) WireSize() int { return 12 }

// Op implements Request.
func (m *MigrateBeginRequest) Op() Op { return OpMigrateBegin }

// --- Commit ------------------------------------------------------------------

// MigrateCommitRequest closes the checkpoint stream and asks the
// destination to materialize the session: id (4) + chunk count (4) +
// digest (8) = 16 bytes. Digest is MigrateDigest over the full checkpoint
// payload, so a truncated or corrupted stream is detected before a broken
// session is installed.
type MigrateCommitRequest struct {
	Chunks uint32
	Digest uint64
}

// Encode implements Message.
func (m *MigrateCommitRequest) Encode(dst []byte) []byte {
	dst = putU32(dst, uint32(OpMigrateCommit))
	dst = putU32(dst, m.Chunks)
	return putU64(dst, m.Digest)
}

// WireSize implements Message.
func (m *MigrateCommitRequest) WireSize() int { return 16 }

// Op implements Request.
func (m *MigrateCommitRequest) Op() Op { return OpMigrateCommit }

// MigrateDigest is the integrity check over a checkpoint payload (FNV-1a,
// 64 bit). It guards against truncation and bit corruption, not tampering.
func MigrateDigest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// The decoders of the migration rows of the op table (ops.go).

func decodeMigrateBegin(_ *Decoder, b []byte) (Request, error) {
	m := &MigrateBeginRequest{Total: getU32(b, 4), ChunkSize: getU32(b, 8)}
	if m.Total > MaxFrameSize {
		return nil, fmt.Errorf("protocol: migrate total %d exceeds limit %d", m.Total, MaxFrameSize)
	}
	if m.ChunkSize == 0 || m.ChunkSize > MaxFrameSize {
		return nil, fmt.Errorf("protocol: migrate chunk size %d out of range", m.ChunkSize)
	}
	return m, nil
}

func decodeMigrateCommit(_ *Decoder, b []byte) (Request, error) {
	return &MigrateCommitRequest{Chunks: getU32(b, 4), Digest: getU64(b, 8)}, nil
}

func decodeSessionRestore(_ *Decoder, b []byte) (Request, error) {
	return &SessionRestoreRequest{Session: getU64(b, 4)}, nil
}
