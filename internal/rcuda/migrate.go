package rcuda

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// This file implements live session migration: the source daemon serializes
// a quiesced durable session — device allocations and contents, stream and
// event timelines, the batch dedup window — into a protocol.Checkpoint and
// streams it straight to the destination daemon over the chunked path (the
// client never relays a byte). On commit the source destroys its copy and
// answers late reattaches with CodeSessionMigrated, so a redirected client
// redials through its (broker-updated) route and resumes with zero replay.
//
// The same dialogue doubles as the standby-checkpoint path: CheckpointTo
// copies a parked session to a peer without destroying it, and a periodic
// loop (WithStandbyPeer) refreshes peers so a pool can fail a dead daemon's
// sessions over by reattach instead of replay.

// ErrSessionMigrated reports that a reattach was redirected: the session
// was live-migrated to another daemon. Unlike ErrSessionEvicted nothing is
// lost — the client's next redial through an updated route reattaches at
// the session's new home — so this never latches ErrSessionLost.
var ErrSessionMigrated = errors.New("rcuda: session migrated")

// WithSessionIDBase starts durable session ids above base, so daemons that
// may exchange sessions by migration can carve out disjoint id ranges and
// a restored id can never collide with a locally minted one.
func WithSessionIDBase(base uint64) ServerOption {
	return func(s *Server) { s.nextSession = base }
}

// WithStandbyPeer starts a background loop that, every interval, streams a
// checkpoint of each parked durable session to the peer dialed by dial —
// but only sessions whose state changed since their last copy (a session
// is only mutated while attached, and parking stamps parkedAt). If this
// daemon then dies, a pool's route failover finds the sessions restored on
// the peer and clients reattach instead of replaying. A session that
// reattached here after its last copy has a stale standby until the next
// sweep refreshes it; the restored copy's batch window still deduplicates,
// and the interval bounds the staleness window.
func WithStandbyPeer(dial func() (transport.Conn, error), interval time.Duration) ServerOption {
	return func(s *Server) {
		if dial != nil && interval > 0 {
			s.standbyDial = dial
			s.standbyEvery = interval
		}
	}
}

// DurableSessions returns the ids of every live durable session (attached
// or parked), sorted — the set a drain-by-migration must relocate before
// its daemon can retire.
func (s *Server) DurableSessions() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, 0, len(s.registry))
	for id := range s.registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// MigrateSession moves session id to the daemon reached by dial: quiesce
// (force-parking a still-attached session by closing its connection),
// checkpoint, stream, commit. On success the local session is destroyed
// and its id tombstoned so late reattaches get CodeSessionMigrated; any
// failure leaves the session parked and reattachable right here. It
// returns the checkpoint bytes streamed.
func (s *Server) MigrateSession(id uint64, dial func() (transport.Conn, error)) (int64, error) {
	sess, err := s.claim(id, true)
	if err != nil {
		s.counters.MigrationFailures.Add(1)
		return 0, err
	}
	n, err := s.streamSession(sess, dial)
	if err != nil {
		s.unclaim(sess)
		s.counters.MigrationFailures.Add(1)
		return 0, err
	}
	s.mu.Lock()
	s.retireLocked(sess, protocol.CodeSessionMigrated)
	s.mu.Unlock()
	s.destroySession(sess)
	s.counters.Migrations.Add(1)
	s.counters.MigrationBytes.Add(n)
	s.logf("rcuda: migrated session %d (%d bytes)", id, n)
	return n, nil
}

// CheckpointTo streams a copy of a parked session to a peer without
// destroying the local one — the standby-checkpoint primitive. The session
// is held parked (reattaches see busy) only for the duration of the copy.
// A refused claim is the caller's to handle; only a copy that started and
// failed counts as a MigrationFailure.
func (s *Server) CheckpointTo(id uint64, dial func() (transport.Conn, error)) (int64, error) {
	sess, err := s.claim(id, false)
	if err != nil {
		return 0, err
	}
	n, err := s.streamSession(sess, dial)
	s.unclaim(sess)
	if err != nil {
		s.counters.MigrationFailures.Add(1)
		return 0, err
	}
	s.counters.MigrationBytes.Add(n)
	return n, nil
}

// claim marks session id claimed by a migration or standby copy: until
// unclaim, reattaches are refused busy, inbound restores cannot replace it
// and the TTL collector leaves it alone. A parked session is claimed at
// once and an attached one refused busy, unless force is set: then its
// connection is closed and the claim completes when the handler observes
// the dead transport and parks it through the normal path — so the parked
// state is exactly what a crash would have left, already proven consistent
// by the reattach machinery.
func (s *Server) claim(id uint64, force bool) (*session, error) {
	s.mu.Lock()
	sess, refusal := s.lookupLocked(id)
	var err error
	switch {
	case refusal == protocol.CodeSessionMigrated:
		err = fmt.Errorf("rcuda: session %d already migrated: %w", id, ErrSessionMigrated)
	case sess == nil:
		err = fmt.Errorf("rcuda: unknown session %d", id)
	case sess.migrating:
		err = fmt.Errorf("rcuda: session %d already migrating: %w", id, ErrServerBusy)
	case sess.attached && !force:
		err = fmt.Errorf("rcuda: session %d is attached: %w", id, ErrServerBusy)
	}
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	sess.migrating = true
	attached, conn := sess.attached, sess.conn
	var parked <-chan struct{}
	if attached {
		parked = sess.parkedLocked()
	}
	s.mu.Unlock()
	if !attached {
		return sess, nil
	}
	if conn != nil {
		_ = conn.Close()
	}
	timer := time.NewTimer(reattachWait)
	defer timer.Stop()
	select {
	case <-parked:
		// Only a park closes parkCh, and the claim keeps a reattach off it.
		return sess, nil
	case <-timer.C:
		err = fmt.Errorf("rcuda: quiesce of session %d timed out: %w", id, ErrServerBusy)
	case <-s.doneCh:
		err = errors.New("rcuda: server shutting down")
	}
	s.unclaim(sess)
	return nil, err
}

// unclaim releases a claim taken by claim.
func (s *Server) unclaim(sess *session) {
	s.mu.Lock()
	sess.migrating = false
	s.mu.Unlock()
}

// buildCheckpoint serializes a claimed session. The caller holds the
// migrating claim, so no handler goroutine is mutating the session.
func (s *Server) buildCheckpoint(sess *session) (*protocol.Checkpoint, error) {
	c := &protocol.Checkpoint{
		Session:      sess.id,
		Module:       sess.module.Name,
		CurDevice:    uint32(sess.cur),
		SchedClass:   protocol.ClassCode(int(sess.schedClass)),
		SchedWeight:  sess.schedWeight,
		LastBatchSeq: sess.lastBatchSeq,
	}
	if sess.lastBatchCodes != nil {
		c.LastBatchCodes = append([]uint32(nil), sess.lastBatchCodes...)
	}
	for d, ctx := range sess.ctxs {
		if ctx == nil {
			continue
		}
		dc, err := ctx.ExportState()
		if err != nil {
			return nil, fmt.Errorf("rcuda: checkpoint session %d device %d: %w", sess.id, d, err)
		}
		dc.Device = uint32(d)
		c.Devices = append(c.Devices, *dc)
	}
	return c, nil
}

// streamSession runs the source half of the daemon-to-daemon dialogue:
// SessionRestore handshake, MigrateBegin, unacknowledged chunks, and a
// MigrateCommit carrying the chunk count and digest the destination
// verifies before accepting the session.
func (s *Server) streamSession(sess *session, dial func() (transport.Conn, error)) (int64, error) {
	ckpt, err := s.buildCheckpoint(sess)
	if err != nil {
		return 0, err
	}
	payload := ckpt.Encode(nil)
	chunkSize := s.migrateChunk
	conn, err := openRestore(sess.id, dial)
	if err != nil {
		return 0, err
	}
	defer func() { _ = conn.Close() }()

	total := uint32(len(payload))
	if err := conn.Send(&protocol.MigrateBeginRequest{Total: total, ChunkSize: chunkSize}); err != nil {
		return 0, fmt.Errorf("rcuda: migrate begin send: %w", err)
	}
	if err := recvAck(conn, "migrate begin"); err != nil {
		return 0, err
	}

	var chunk *protocol.Chunk
	if _, err := sendChunks(conn, &chunk, protocol.OpMigrateChunk, total, chunkSize, sliceView(payload)); err != nil {
		return 0, err
	}
	commit := &protocol.MigrateCommitRequest{
		Chunks: protocol.Chunks(total, chunkSize),
		Digest: protocol.MigrateDigest(payload),
	}
	if err := conn.Send(commit); err != nil {
		return 0, fmt.Errorf("rcuda: migrate commit send: %w", err)
	}
	if err := recvAck(conn, "migrate commit"); err != nil {
		return 0, err
	}
	return int64(len(payload)), nil
}

// restoreAttempts bounds the SessionRestore hellos of one stream, paused
// restoreBackoff, doubling, apart: 31 ms in all.
const restoreAttempts, restoreBackoff = 6, time.Millisecond

// openRestore dials the destination and runs the SessionRestore handshake.
// A destination refuses an id busy while it still holds an attempt for it,
// and it learns that the source gave an attempt up only at its next receive
// on that connection — after a source that retries at once has said hello
// again. So, like a client's reattach, a hello refused busy is repeated a
// bounded number of times (DESIGN.md §5).
func openRestore(id uint64, dial func() (transport.Conn, error)) (transport.Conn, error) {
	for attempt := 1; ; attempt++ {
		conn, err := dial()
		if err != nil {
			return nil, fmt.Errorf("rcuda: migrate dial: %w", err)
		}
		if err = conn.Send(&protocol.SessionRestoreRequest{Session: id}); err != nil {
			err = fmt.Errorf("rcuda: restore send: %w", err)
		} else if err = recvAck(conn, "restore"); err == nil {
			return conn, nil
		}
		_ = conn.Close()
		if !errors.Is(err, ErrServerBusy) || attempt == restoreAttempts {
			return nil, err
		}
		time.Sleep(restoreBackoff << (attempt - 1))
	}
}

// recvAck receives one acknowledgement of the migration dialogue — a bare
// result code — and maps a refusal to an error.
func recvAck(conn transport.Conn, phase string) error {
	raw, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("rcuda: %s recv: %w", phase, err)
	}
	errCode, err := protocol.DecodeCodeResponse(raw)
	if err != nil {
		return err
	}
	if errCode == protocol.CodeServerBusy {
		return fmt.Errorf("rcuda: %s refused: %w", phase, ErrServerBusy)
	}
	if err := cudart.Error(errCode).AsError(); err != nil {
		return fmt.Errorf("rcuda: %s rejected: %w", phase, err)
	}
	return nil
}

// serveRestoreConn is the destination half: it admits the inbound session
// under the same caps a fresh init pays, reassembles the checkpoint from
// the chunk stream, verifies count and digest, materializes contexts at
// their original device addresses, and parks the session awaiting the
// redirected client's reattach. Every failure before the final commit
// acknowledgement leaves this daemon exactly as if the migration had never
// been attempted.
func (s *Server) serveRestoreConn(conn transport.Conn, rr *protocol.SessionRestoreRequest, withinConnCap bool) error {
	if !withinConnCap {
		s.counters.RejectedConns.Add(1)
		return s.refuseRestore(conn, rr.Session, ErrServerBusy)
	}
	if err := s.guard.acquireSession(s.doneCh); err != nil {
		s.counters.RejectedSessions.Add(1)
		return s.refuseRestore(conn, rr.Session, err)
	}
	sess := s.newSession()
	sess.id, sess.durable, sess.attached, sess.standby = rr.Session, true, true, true
	var replaced *session
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.guard.releaseSession()
		return s.refuseRestore(conn, rr.Session, ErrServerBusy)
	}
	if old, exists := s.registry[rr.Session]; exists {
		// Only a parked standby copy — state this daemon materialized and no
		// client ever claimed — may be replaced by a fresher checkpoint. A
		// claimed or live session with the id refuses the restore.
		if !old.standby || old.attached || old.migrating {
			s.mu.Unlock()
			s.guard.releaseSession()
			return s.refuseRestore(conn, rr.Session, ErrServerBusy)
		}
		delete(s.registry, rr.Session)
		replaced = old
	}
	s.registry[rr.Session] = sess
	if rr.Session > s.nextSession {
		s.nextSession = rr.Session
	}
	// A session that migrated away can migrate back, and an evicted id can
	// be restored: the tombstone yields to the live state.
	delete(s.tombstones, rr.Session)
	s.mu.Unlock()
	if replaced != nil {
		s.destroySession(replaced)
	}
	abort := func() {
		s.mu.Lock()
		delete(s.registry, sess.id)
		s.mu.Unlock()
		s.destroySession(sess)
	}

	if err := conn.Send(&protocol.CodeResponse{}); err != nil {
		abort()
		return err
	}
	err := s.recvCheckpoint(conn, sess)
	if err != nil {
		abort()
		return err
	}
	s.mu.Lock()
	s.parkLocked(sess)
	s.mu.Unlock()
	s.counters.RestoreFromCheckpoint.Add(1)
	s.logf("rcuda: restored session %d from checkpoint", sess.id)
	return conn.Send(&protocol.CodeResponse{})
}

// refuseRestore answers an inbound restore with the typed busy code.
func (s *Server) refuseRestore(conn transport.Conn, id uint64, why error) error {
	if sendErr := conn.Send(&protocol.CodeResponse{Err: protocol.CodeServerBusy}); sendErr != nil {
		return sendErr
	}
	return fmt.Errorf("rcuda: restore of session %d refused: %w", id, why)
}

// recvCheckpoint receives the Begin, the chunks — landed straight in the
// checkpoint buffer — and the Commit, and materializes the verified
// checkpoint into sess. Protocol violations and transport faults return an
// error without sending a commit acknowledgement — the source observes the
// dead connection and keeps its copy.
func (s *Server) recvCheckpoint(conn transport.Conn, sess *session) error {
	raw, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("rcuda: migrate begin recv: %w", err)
	}
	// A migration stream is a handful of frames on a connection of its own:
	// they decode into fresh memory, so begin may outlive the receives below.
	req, err := protocol.DecodeRequest(raw)
	if err != nil {
		return fmt.Errorf("rcuda: malformed migrate message: %w", err)
	}
	begin, ok := req.(*protocol.MigrateBeginRequest)
	if !ok {
		return fmt.Errorf("rcuda: %v before MigrateBegin", req.Op())
	}
	buf := make([]byte, begin.Total)
	asm, err := protocol.NewChunkAssembler(protocol.OpMigrateChunk, begin.Total, begin.ChunkSize, buf)
	if err != nil {
		// Decoded Begin geometry is pre-validated; reaching here is a bug.
		_ = conn.Send(&protocol.CodeResponse{Err: uint32(cudart.ErrorInvalidValue)})
		return err
	}
	if err := conn.Send(&protocol.CodeResponse{}); err != nil {
		return err
	}
	if raw, _, err = recvChunks(conn, asm, nil); err != nil {
		return err
	}
	if req, err = protocol.DecodeRequest(raw); err != nil {
		return fmt.Errorf("rcuda: malformed migrate message: %w", err)
	}
	commit, ok := req.(*protocol.MigrateCommitRequest)
	if !ok {
		return fmt.Errorf("rcuda: %v inside a migration stream", req.Op())
	}
	if err := s.commitCheckpoint(sess, asm, buf, commit); err != nil {
		_ = conn.Send(&protocol.CodeResponse{Err: uint32(cudart.ErrorInvalidValue)})
		return fmt.Errorf("rcuda: restore of session %d failed: %w", sess.id, err)
	}
	return nil
}

// commitCheckpoint verifies the reassembled stream against the commit
// frame — every chunk accepted, as many as it declares, and its digest —
// and materializes it.
func (s *Server) commitCheckpoint(sess *session, asm *protocol.ChunkAssembler, buf []byte, commit *protocol.MigrateCommitRequest) error {
	if err := asm.Finish(commit.Chunks); err != nil {
		return err
	}
	if got := protocol.MigrateDigest(buf); got != commit.Digest {
		return fmt.Errorf("rcuda: checkpoint digest mismatch: %#x != %#x", got, commit.Digest)
	}
	ckpt, err := protocol.DecodeCheckpoint(buf)
	if err != nil {
		return err
	}
	if ckpt.Session != sess.id {
		return fmt.Errorf("rcuda: checkpoint names session %d, restore handshake said %d", ckpt.Session, sess.id)
	}
	return s.materializeCheckpoint(sess, ckpt)
}

// materializeCheckpoint rebuilds the checkpoint's contexts inside sess.
// Partially created contexts are left on the session; the caller's abort
// path destroys the session, releasing them.
func (s *Server) materializeCheckpoint(sess *session, c *protocol.Checkpoint) error {
	mod, err := gpu.LookupModule(c.Module)
	if err != nil {
		return err
	}
	sess.module = mod
	// The scheduling identity travels with the session: the restored
	// session is not attached yet, so no gauge moves — serveSession's
	// attach accounting picks the class up at reattach time.
	s.applySchedParams(sess, c.SchedClass, c.SchedWeight, false)
	for i := range c.Devices {
		dc := &c.Devices[i]
		d := int(dc.Device)
		if d < len(sess.ctxs) && sess.ctxs[d] != nil {
			return fmt.Errorf("rcuda: checkpoint repeats device %d", d)
		}
		if err := sess.setDevice(d); err != nil {
			return fmt.Errorf("rcuda: checkpoint device %d of %d: %w", d, len(s.devs), err)
		}
		if err := sess.ctxs[d].RestoreState(dc); err != nil {
			return err
		}
	}
	// An empty session checkpoints no device blocks; its current device
	// still needs a live context for the first post-reattach request.
	if err := sess.setDevice(int(c.CurDevice)); err != nil {
		return fmt.Errorf("rcuda: checkpoint selects device %d of %d: %w", c.CurDevice, len(s.devs), err)
	}
	sess.lastBatchSeq = c.LastBatchSeq
	if c.LastBatchCodes != nil {
		sess.lastBatchCodes = append([]uint32(nil), c.LastBatchCodes...)
	}
	return nil
}

// standbyLoop periodically refreshes the standby peer with checkpoints of
// parked sessions whose state changed since their last copy.
func (s *Server) standbyLoop(interval time.Duration, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.doneCh:
			return
		case <-t.C:
			s.standbySweep()
		}
	}
}

// standbySweep copies every stale parked session to the standby peer. A
// session is stale when its parkedAt differs from the instant of its last
// successful copy — it was reattached and re-parked since, so its state may
// have changed. Sessions a client is using, or that are mid-migration, are
// skipped and caught by a later sweep.
func (s *Server) standbySweep() {
	type cand struct {
		sess     *session
		parkedAt time.Time
	}
	s.mu.Lock()
	var cands []cand
	for _, sess := range s.registry {
		if !sess.attached && !sess.migrating && !sess.standby && !sess.parkedAt.Equal(sess.standbyCopied) {
			cands = append(cands, cand{sess, sess.parkedAt})
		}
	}
	s.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].sess.id < cands[j].sess.id })
	for _, c := range cands {
		if _, err := s.CheckpointTo(c.sess.id, s.standbyDial); err != nil {
			s.logf("rcuda: standby checkpoint of session %d: %v", c.sess.id, err)
			continue
		}
		s.mu.Lock()
		c.sess.standbyCopied = c.parkedAt
		s.mu.Unlock()
	}
}

// SessionID returns the durable session id negotiated at Open, or zero for
// a non-durable session. A broker keys migrations by it.
func (c *Client) SessionID() uint64 { return c.sessionID }
