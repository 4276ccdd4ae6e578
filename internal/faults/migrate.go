package faults

import "time"

// Migration dialogue operation indices, as counted by a Plan attached to
// the source daemon's migration connection. The source drives a strictly
// ordered dialogue (see internal/rcuda.streamSession): a session-restore
// hello, a begin/ack, a run of unacked chunk frames — sent by the same
// sendChunks a chunked copy's sender runs, one Send per chunk — and a
// commit/ack.
// Pinning injections to these indices lets a chaos test kill the transfer
// at any exact protocol phase boundary and replay it deterministically.
//
// MigrateOpFirstChunk is the Send of the first checkpoint chunk. The four
// ops before it are the hello (0, the Send of the SessionRestoreRequest),
// the hello ack (1, the Recv of the restore handshake's result code), the
// begin (2, the Send of the MigrateBeginRequest) and the begin ack (3, the
// Recv of the begin acknowledgement).
const MigrateOpFirstChunk = 4

// MigrateOpChunk returns the operation index of the Send of checkpoint
// chunk i (zero-based).
func MigrateOpChunk(i int) int { return MigrateOpFirstChunk + i }

// MigrateOpCommit returns the operation index of the Send of the
// MigrateCommitRequest for a transfer of chunks chunk frames.
func MigrateOpCommit(chunks int) int { return MigrateOpFirstChunk + chunks }

// MigrateOpCommitAck returns the operation index of the Recv of the commit
// status for a transfer of chunks chunk frames.
func MigrateOpCommitAck(chunks int) int { return MigrateOpCommit(chunks) + 1 }

// MigrateOps returns the total operation count of a clean migration
// dialogue carrying chunks chunk frames — handy for sweeping a reset
// across every phase boundary.
func MigrateOps(chunks int) int { return MigrateOpCommitAck(chunks) + 1 }

// MigrateDieAfterBegin builds a scripted plan that tears the migration
// connection down right after the destination acknowledged the begin —
// the source dies with the transfer promised but no payload delivered.
func MigrateDieAfterBegin() *Plan {
	return Script(Injection{Op: MigrateOpFirstChunk, Dir: DirSend, Decision: Decision{Kind: KindReset}})
}

// MigrateTruncateChunk builds a scripted plan that cuts checkpoint chunk
// i (zero-based) short on the wire, tearing the connection down with the
// destination holding a torn partial checkpoint.
func MigrateTruncateChunk(i int) *Plan {
	return Script(Injection{Op: MigrateOpChunk(i), Dir: DirSend, Decision: Decision{Kind: KindTruncate}})
}

// MigrateStallBeforeCommit builds a scripted plan that stalls the commit
// frame of a transfer carrying chunks chunk frames: every byte of the
// checkpoint arrived, but the destination never hears the digest and must
// not materialize the session.
func MigrateStallBeforeCommit(chunks int, delay time.Duration) *Plan {
	return Script(Injection{
		Op:       MigrateOpCommit(chunks),
		Dir:      DirSend,
		Decision: Decision{Kind: KindStall, Delay: delay},
	})
}

// MigrateResetAt builds a scripted plan that resets the migration
// connection at exactly operation op — combined with MigrateOps, a chaos
// test can sweep a source-daemon death across every phase boundary of the
// dialogue.
func MigrateResetAt(op int) *Plan {
	return Script(Injection{Op: op, Dir: DirAny, Decision: Decision{Kind: KindReset}})
}
