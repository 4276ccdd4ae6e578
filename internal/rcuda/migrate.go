package rcuda

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/protocol"
	"rcuda/internal/sched"
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

// WithMigrateChunkSize overrides the chunk size of outbound migration
// streams; the default is protocol.DefaultChunkSize. Small values are for
// tests that want many chunk frames on the wire.
func WithMigrateChunkSize(n uint32) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.migrateChunk = n
		}
	}
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
	for id, sess := range s.registry {
		if !sess.destroyed {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CheckpointSession serializes a parked durable session into a checkpoint
// without disturbing it. The session must be parked: an attached session
// is being mutated by its client and has no consistent instant to capture.
func (s *Server) CheckpointSession(id uint64) (*protocol.Checkpoint, error) {
	sess, err := s.claimParked(id)
	if err != nil {
		return nil, err
	}
	ckpt, err := s.buildCheckpoint(sess)
	s.mu.Lock()
	sess.migrating = false
	s.mu.Unlock()
	return ckpt, err
}

// MigrateSession moves session id to the daemon reached by dial: quiesce
// (force-parking a still-attached session by closing its connection),
// checkpoint, stream, commit. On success the local session is destroyed
// and its id tombstoned so late reattaches get CodeSessionMigrated; any
// failure leaves the session parked and reattachable right here. It
// returns the checkpoint bytes streamed.
func (s *Server) MigrateSession(id uint64, dial func() (transport.Conn, error)) (int64, error) {
	sess, err := s.quiesceForMigration(id)
	if err != nil {
		s.counters.migrationFailures.Add(1)
		return 0, err
	}
	n, err := s.streamSession(sess, dial)
	if err != nil {
		s.mu.Lock()
		sess.migrating = false
		s.mu.Unlock()
		s.counters.migrationFailures.Add(1)
		return 0, err
	}
	s.mu.Lock()
	delete(s.registry, id)
	if s.migrated == nil {
		s.migrated = make(map[uint64]struct{})
	}
	s.migrated[id] = struct{}{}
	s.mu.Unlock()
	s.destroySession(sess)
	s.counters.migrations.Add(1)
	s.counters.migrationBytes.Add(n)
	s.logf("rcuda: migrated session %d (%d bytes)", id, n)
	return n, nil
}

// CheckpointTo streams a copy of a parked session to a peer without
// destroying the local one — the standby-checkpoint primitive. The session
// is held parked (reattaches see busy) only for the duration of the copy.
func (s *Server) CheckpointTo(id uint64, dial func() (transport.Conn, error)) (int64, error) {
	sess, err := s.claimParked(id)
	if err != nil {
		s.counters.migrationFailures.Add(1)
		return 0, err
	}
	n, err := s.streamSession(sess, dial)
	s.mu.Lock()
	sess.migrating = false
	s.mu.Unlock()
	if err != nil {
		s.counters.migrationFailures.Add(1)
		return 0, err
	}
	s.counters.migrationBytes.Add(n)
	return n, nil
}

// claimParked marks a parked, unclaimed durable session as migrating so no
// reattach can splice onto it mid-capture.
func (s *Server) claimParked(id uint64) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, known := s.registry[id]
	switch {
	case !known || sess.destroyed:
		if _, gone := s.migrated[id]; gone {
			return nil, fmt.Errorf("rcuda: session %d already migrated: %w", id, ErrSessionMigrated)
		}
		return nil, fmt.Errorf("rcuda: unknown session %d", id)
	case sess.migrating:
		return nil, fmt.Errorf("rcuda: session %d already migrating: %w", id, ErrServerBusy)
	case sess.attached:
		return nil, fmt.Errorf("rcuda: session %d is attached: %w", id, ErrServerBusy)
	}
	sess.migrating = true
	return sess, nil
}

// quiesceForMigration claims session id for migration, force-parking a
// still-attached session: the migrating mark blocks reattach claims, the
// session's connection is closed, and the claim completes when the handler
// observes the dead transport and parks through the normal path — so the
// parked state is exactly what a crash would have left, already proven
// consistent by the reattach machinery.
func (s *Server) quiesceForMigration(id uint64) (*session, error) {
	timer := time.NewTimer(reattachWait)
	defer timer.Stop()
	claimed := false
	for {
		s.mu.Lock()
		sess, known := s.registry[id]
		if !known || sess.destroyed {
			_, gone := s.migrated[id]
			s.mu.Unlock()
			if gone {
				return nil, fmt.Errorf("rcuda: session %d already migrated: %w", id, ErrSessionMigrated)
			}
			return nil, fmt.Errorf("rcuda: unknown session %d", id)
		}
		if sess.migrating && !claimed {
			s.mu.Unlock()
			return nil, fmt.Errorf("rcuda: session %d already migrating: %w", id, ErrServerBusy)
		}
		sess.migrating = true
		claimed = true
		if !sess.attached {
			s.mu.Unlock()
			return sess, nil
		}
		conn := sess.conn
		parked := sess.parkCh
		s.mu.Unlock()
		if conn != nil {
			_ = conn.Close()
		}
		abort := func(err error) (*session, error) {
			s.mu.Lock()
			sess.migrating = false
			s.mu.Unlock()
			return nil, err
		}
		select {
		case <-parked:
			// Re-check under the lock; the next iteration claims it parked.
		case <-timer.C:
			return abort(fmt.Errorf("rcuda: quiesce of session %d timed out: %w", id, ErrServerBusy))
		case <-s.doneCh:
			return abort(errors.New("rcuda: server shutting down"))
		}
	}
}

// buildCheckpoint serializes a claimed session. The caller holds the
// migrating claim, so no handler goroutine is mutating the session.
func (s *Server) buildCheckpoint(sess *session) (*protocol.Checkpoint, error) {
	c := &protocol.Checkpoint{
		Session:      sess.id,
		Module:       sess.module.Name,
		CurDevice:    uint32(sess.cur),
		SchedClass:   classToWire(sess.schedClass),
		SchedWeight:  sess.schedWeight,
		LastBatchSeq: sess.lastBatchSeq,
	}
	if sess.lastBatchCodes != nil {
		c.LastBatchCodes = append([]uint32(nil), sess.lastBatchCodes...)
	}
	devs := make([]int, 0, len(sess.ctxs))
	for d := range sess.ctxs {
		devs = append(devs, d)
	}
	sort.Ints(devs)
	for _, d := range devs {
		st, err := sess.ctxs[d].ExportState()
		if err != nil {
			return nil, fmt.Errorf("rcuda: checkpoint session %d device %d: %w", sess.id, d, err)
		}
		dc := protocol.DeviceCheckpoint{
			Device: uint32(d),
			Timeline: protocol.TimelineCheckpoint{
				EngineDone: [2]uint64{uint64(st.Timeline.EngineDone[0]), uint64(st.Timeline.EngineDone[1])},
				NextStream: st.Timeline.NextStream,
				NextEvent:  st.Timeline.NextEvent,
			},
		}
		for _, al := range st.Allocs {
			dc.Allocs = append(dc.Allocs, protocol.AllocCheckpoint{Addr: al.Addr, Size: al.Size, Data: al.Data})
		}
		for _, m := range st.Timeline.Streams {
			dc.Timeline.Streams = append(dc.Timeline.Streams, protocol.TimelineEntry{ID: m.ID, Done: uint64(m.Done)})
		}
		for _, m := range st.Timeline.Events {
			dc.Timeline.Events = append(dc.Timeline.Events, protocol.TimelineEntry{ID: m.ID, Done: uint64(m.Done)})
		}
		c.Devices = append(c.Devices, dc)
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
	if chunkSize == 0 {
		chunkSize = protocol.DefaultChunkSize
	}
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

	chunk := &protocol.MigrateChunk{}
	for off, seq := 0, uint32(0); off < len(payload); seq++ {
		end := off + int(chunkSize)
		if end > len(payload) {
			end = len(payload)
		}
		chunk.Seq, chunk.Data = seq, payload[off:end]
		if err := conn.Send(chunk); err != nil {
			return 0, fmt.Errorf("rcuda: migrate chunk %d send: %w", seq, err)
		}
		off = end
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
// bounded number of times (DESIGN.md §14).
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
		s.counters.rejectedConns.Add(1)
		return s.refuseRestore(conn, rr.Session, ErrServerBusy)
	}
	if err := s.guard.acquireSession(s.doneCh); err != nil {
		s.counters.rejectedSessions.Add(1)
		return s.refuseRestore(conn, rr.Session, err)
	}
	sess := &session{
		srv:        s,
		ctxs:       map[int]*gpu.Context{},
		slotHeld:   s.guard.slots != nil,
		id:         rr.Session,
		durable:    true,
		attached:   true,
		standby:    true,
		parkCh:     make(chan struct{}),
		schedClass: sched.Batch,
	}
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
	if s.registry == nil {
		s.registry = make(map[uint64]*session)
	}
	s.registry[rr.Session] = sess
	if rr.Session > s.nextSession {
		s.nextSession = rr.Session
	}
	// A session that migrated away can migrate back; the tombstones yield
	// to the live state.
	delete(s.migrated, rr.Session)
	delete(s.evicted, rr.Session)
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
	sess.attached = false
	sess.parkedAt = time.Now()
	close(sess.parkCh)
	s.maybeStartGCLocked()
	s.mu.Unlock()
	s.counters.restoreFromCheckpoint.Add(1)
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

// recvCheckpoint runs the Begin/chunks/Commit receive loop and materializes
// the verified checkpoint into sess. Protocol violations and transport
// faults return an error without sending a commit acknowledgement — the
// source observes the dead connection and keeps its copy.
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
	asm, err := protocol.NewChunkAssembler(begin.Total, begin.ChunkSize, buf)
	if err != nil {
		// Decoded Begin geometry is pre-validated; reaching here is a bug.
		_ = conn.Send(&protocol.CodeResponse{Err: uint32(cudart.ErrorInvalidValue)})
		return err
	}
	if err := conn.Send(&protocol.CodeResponse{}); err != nil {
		return err
	}
	var opErr error
	for {
		if raw, err = conn.Recv(); err != nil {
			return fmt.Errorf("rcuda: migrate chunk recv: %w", err)
		}
		if req, err = protocol.DecodeRequest(raw); err != nil {
			return fmt.Errorf("rcuda: malformed migrate message: %w", err)
		}
		switch r := req.(type) {
		case *protocol.MigrateChunk:
			if _, addErr := asm.Add(r.Stream()); addErr != nil && opErr == nil {
				opErr = addErr // keep draining to the commit frame
			}
		case *protocol.MigrateCommitRequest:
			if opErr == nil {
				opErr = s.commitCheckpoint(sess, asm, buf, r)
			}
			if opErr != nil {
				_ = conn.Send(&protocol.CodeResponse{Err: uint32(cudart.ErrorInvalidValue)})
				return fmt.Errorf("rcuda: restore of session %d failed: %w", sess.id, opErr)
			}
			return nil
		default:
			return fmt.Errorf("rcuda: %v inside a migration stream", req.Op())
		}
	}
}

// commitCheckpoint verifies the reassembled stream against the commit frame
// and materializes it.
func (s *Server) commitCheckpoint(sess *session, asm *protocol.ChunkAssembler, buf []byte, commit *protocol.MigrateCommitRequest) error {
	if !asm.Complete() {
		return fmt.Errorf("rcuda: commit with incomplete checkpoint stream")
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
	if int(c.CurDevice) >= len(s.devs) {
		return fmt.Errorf("rcuda: checkpoint selects device %d of %d", c.CurDevice, len(s.devs))
	}
	sess.cur = int(c.CurDevice)
	// The scheduling identity travels with the session: the restored
	// session is not attached yet, so no gauge moves — serveSession's
	// attach accounting picks the class up at reattach time.
	s.applySchedParams(sess, c.SchedClass, c.SchedWeight, false)
	newCtx := func(d int) (*gpu.Context, error) {
		if d >= len(s.devs) {
			return nil, fmt.Errorf("rcuda: checkpoint uses device %d of %d", d, len(s.devs))
		}
		if _, dup := sess.ctxs[d]; dup {
			return nil, fmt.Errorf("rcuda: checkpoint repeats device %d", d)
		}
		ctx := s.devs[d].NewContextPreinitialized()
		if err := ctx.LoadModule(mod); err != nil {
			_ = ctx.Destroy()
			return nil, err
		}
		sess.ctxs[d] = ctx
		s.devSessions[d].Add(1)
		return ctx, nil
	}
	for i := range c.Devices {
		dc := &c.Devices[i]
		ctx, err := newCtx(int(dc.Device))
		if err != nil {
			return err
		}
		st := &gpu.ContextState{
			Timeline: gpu.TimelineState{
				EngineDone: [2]time.Duration{time.Duration(dc.Timeline.EngineDone[0]), time.Duration(dc.Timeline.EngineDone[1])},
				NextStream: dc.Timeline.NextStream,
				NextEvent:  dc.Timeline.NextEvent,
			},
		}
		for _, al := range dc.Allocs {
			st.Allocs = append(st.Allocs, gpu.AllocState{Addr: al.Addr, Size: al.Size, Data: al.Data})
		}
		for _, m := range dc.Timeline.Streams {
			st.Timeline.Streams = append(st.Timeline.Streams, gpu.MarkState{ID: m.ID, Done: time.Duration(m.Done)})
		}
		for _, m := range dc.Timeline.Events {
			st.Timeline.Events = append(st.Timeline.Events, gpu.MarkState{ID: m.ID, Done: time.Duration(m.Done)})
		}
		if err := ctx.RestoreState(st); err != nil {
			return err
		}
	}
	if _, ok := sess.ctxs[sess.cur]; !ok {
		// An empty session checkpoints no device blocks; its current device
		// still needs a live context for the first post-reattach request.
		if _, err := newCtx(sess.cur); err != nil {
			return err
		}
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
		id       uint64
		parkedAt time.Time
	}
	s.mu.Lock()
	if s.standbyCopied == nil {
		s.standbyCopied = make(map[uint64]time.Time)
	}
	for id := range s.standbyCopied {
		if _, live := s.registry[id]; !live {
			delete(s.standbyCopied, id)
		}
	}
	var cands []cand
	for id, sess := range s.registry {
		if !sess.attached && !sess.destroyed && !sess.migrating && !sess.standby &&
			!sess.parkedAt.Equal(s.standbyCopied[id]) {
			cands = append(cands, cand{id, sess.parkedAt})
		}
	}
	s.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })
	for _, c := range cands {
		if _, err := s.CheckpointTo(c.id, s.standbyDial); err != nil {
			s.logf("rcuda: standby checkpoint of session %d: %v", c.id, err)
			continue
		}
		s.mu.Lock()
		s.standbyCopied[c.id] = c.parkedAt
		s.mu.Unlock()
	}
}

// SessionID returns the durable session id negotiated at Open, or zero for
// a non-durable session. A broker keys migrations by it.
func (c *Client) SessionID() uint64 { return c.sessionID }
