// Package rcuda implements the paper's middleware: a client library that
// satisfies the cudart.Runtime interface by forwarding every CUDA call to a
// remote server, and the GPU network service that executes those calls on
// the device it owns.
//
// The architecture follows Section III: the client sends one message per
// CUDA call and the server always answers with a 32-bit result code
// (possibly followed by data); the server daemon listens on a TCP port and
// time-multiplexes the GPU by serving each connection on its own CUDA
// context, which it pre-initializes so clients never pay the CUDA
// environment start-up delay.
//
// Beyond the paper, the server carries a protection layer for multi-tenant
// deployment: admission control (WithMaxSessions, WithMaxConns,
// WithAdmissionQueue), per-session quotas (WithSessionMemoryLimit,
// WithMaxAllocsPerSession), a request watchdog (WithRequestDeadline),
// TTL-based reclamation of abandoned durable sessions
// (WithParkedSessionTTL), and graceful shutdown (Drain, bounded Close).
// Every limit defaults to off.
package rcuda

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/protocol"
	"rcuda/internal/sched"
	"rcuda/internal/transport"
)

// Server is the rCUDA daemon: it owns one or more devices and serves GPU
// requests. Figure 1 of the paper shows server nodes with several
// accelerators; clients discover them with cudaGetDeviceCount and select
// with cudaSetDevice.
type Server struct {
	devs     []*gpu.Device
	logger   *log.Logger
	spread   bool
	counters ServerCounts[atomic.Int64]
	// Live load gauges behind the StatsQuery wire reply (see stats.go):
	// attached counts GPU sessions currently spliced to a connection
	// (probe-only connections excluded), devSessions counts sessions
	// holding a context on each device, devBusy accumulates each device's
	// dispatch time in nanoseconds of its own clock. The slices are sized
	// once in NewServer, after WithDevices has run.
	attached    atomic.Int64
	devSessions []atomic.Int64
	devBusy     []atomic.Int64

	// Hardening configuration (see limits.go); zero values disable.
	maxSessions         int
	maxConns            int
	admitQueueDepth     int
	admitQueueWait      time.Duration
	sessionMemLimit     uint64
	maxAllocsPerSession int
	requestDeadline     time.Duration
	parkedTTL           time.Duration
	closeGrace          time.Duration

	guard *guard
	// doneCh closes when shutdown begins, waking queued admissions and
	// reattach waiters.
	doneCh chan struct{}
	// handlers tracks every ServeConn in flight — including ones invoked
	// directly on a simulated pipe, which Serve's WaitGroup never sees.
	handlers sync.WaitGroup

	mu       sync.Mutex
	listener net.Listener
	closed   bool
	nextDev  int
	sessions sync.WaitGroup
	// conns holds every connection currently being served so Drain can
	// force-close stragglers past its deadline; the value is true while the
	// connection waits between sessions, which Drain closes at once.
	conns map[transport.Conn]bool
	// registry maps durable session ids to their state so a reconnecting
	// client can reattach; see protocol.SessionHelloRequest.
	registry    map[uint64]*session
	nextSession uint64
	// tombstones maps the id of a durable session this daemon no longer
	// holds to the code refusing a late reattach: CodeSessionEvicted for
	// one the parked-session GC reclaimed, CodeSessionMigrated for one
	// live-migrated to another daemon (see migrate.go). Only abandoned or
	// moved sessions land here, a few bytes each, so the map stays small
	// for any sane TTL.
	tombstones map[uint64]uint32
	gcStop     chan struct{}
	gcDone     chan struct{}
	// migrateChunk is the outbound migration stream's chunk size.
	migrateChunk uint32
	// Standby-checkpoint loop state (WithStandbyPeer).
	standbyDial  func() (transport.Conn, error)
	standbyEvery time.Duration
	standbyDone  chan struct{}

	// Multi-tenant device scheduler (see sched.go in this package and
	// internal/sched). With schedOn, every device-touching request passes
	// through queues[dev] for one op; costs[dev] supplies the estimate.
	// classAttached counts attached sessions per declared class, feeding
	// the per-class stats rows. Sized in NewServer, after options.
	schedOn       bool
	schedCfg      sched.Config
	queues        []*sched.Queue
	costs         []*sched.CostModel
	classAttached [sched.NumClasses]atomic.Int64

	// afterDispatch, when set, runs once the request loop has sent a
	// request's reply, which may alias the session's storage. Tests set it
	// to overwrite that storage, so that anything still holding a decoded
	// request or a reply reads garbage.
	afterDispatch func(*session)
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithLogger directs server diagnostics to the given logger; by default
// they are discarded, since per-request logging would distort timing.
func WithLogger(l *log.Logger) ServerOption {
	return func(s *Server) { s.logger = l }
}

// WithDevices attaches additional GPUs to the daemon beyond the primary one
// passed to NewServer.
func WithDevices(extra ...*gpu.Device) ServerOption {
	return func(s *Server) { s.devs = append(s.devs, extra...) }
}

// WithSessionSpread makes new sessions start on the daemon's devices round
// robin instead of all defaulting to device 0, spreading clients that never
// call cudaSetDevice across a multi-GPU server.
func WithSessionSpread() ServerOption {
	return func(s *Server) { s.spread = true }
}

// initialDevice picks the device a new session starts on.
func (s *Server) initialDevice() int {
	if !s.spread || len(s.devs) == 1 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.nextDev % len(s.devs)
	s.nextDev++
	return d
}

// NewServer creates a daemon for the given device.
func NewServer(dev *gpu.Device, opts ...ServerOption) *Server {
	s := &Server{
		devs:         []*gpu.Device{dev},
		closeGrace:   DefaultCloseGrace,
		doneCh:       make(chan struct{}),
		conns:        make(map[transport.Conn]bool),
		registry:     make(map[uint64]*session),
		tombstones:   make(map[uint64]uint32),
		migrateChunk: protocol.DefaultChunkSize,
	}
	for _, o := range opts {
		o(s)
	}
	s.guard = newGuard(s.maxSessions, s.maxConns, s.admitQueueDepth, s.admitQueueWait)
	s.devSessions = make([]atomic.Int64, len(s.devs))
	s.devBusy = make([]atomic.Int64, len(s.devs))
	if s.schedOn {
		s.queues = make([]*sched.Queue, len(s.devs))
		s.costs = make([]*sched.CostModel, len(s.devs))
		for i, dev := range s.devs {
			s.queues[i] = sched.NewQueue(s.schedCfg, dev.Clock())
			s.costs[i] = sched.NewCostModel()
		}
	}
	if s.standbyDial != nil {
		s.standbyDone = make(chan struct{})
		go s.standbyLoop(s.standbyEvery, s.standbyDone)
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// Serve accepts connections from ln until Close is called, spawning one
// session per connection — the paper's "spawning a different server process
// for each remote execution over a new GPU context".
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("rcuda: server closed")
	}
	s.listener = ln
	s.mu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("rcuda: accept: %w", err)
		}
		s.sessions.Add(1)
		go func() {
			defer s.sessions.Done()
			conn := transport.NewTCPConn(c)
			if err := s.ServeConn(conn); err != nil {
				s.logf("rcuda: session from %s: %v", c.RemoteAddr(), err)
			}
			_ = conn.Close()
		}()
	}
}

// beginShutdown flips the server into its terminal state exactly once:
// stop accepting, wake queued admissions and reattach waiters, stop the
// parked-session GC. It returns the listener's close error.
func (s *Server) beginShutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	close(s.doneCh)
	gcStop, gcDone := s.gcStop, s.gcDone
	s.gcStop, s.gcDone = nil, nil
	standbyDone := s.standbyDone
	s.standbyDone = nil
	s.mu.Unlock()
	if gcStop != nil {
		close(gcStop)
		<-gcDone
	}
	if standbyDone != nil {
		<-standbyDone // woken by doneCh
	}
	if ln != nil {
		return ln.Close()
	}
	return nil
}

// sweepOrphans destroys every parked durable session nobody reattached to.
// Safe to call repeatedly; destroySession guards double destruction.
func (s *Server) sweepOrphans() {
	s.mu.Lock()
	orphans := make([]*session, 0, len(s.registry))
	for id, sess := range s.registry {
		delete(s.registry, id)
		if !sess.attached {
			orphans = append(orphans, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range orphans {
		s.destroySession(sess)
	}
}

// Drain gracefully shuts the server down: it stops accepting, closes the
// connections waiting between sessions, lets in-flight sessions run to
// completion, and — once ctx expires — force closes the stragglers'
// connections so no handler goroutine outlives the drain by more than one
// blocked transport operation. Parked durable sessions are destroyed
// either way. It returns ctx.Err() when force closing was needed, nil for a
// fully graceful drain.
func (s *Server) Drain(ctx context.Context) error {
	lnErr := s.beginShutdown()
	s.closeResting()
	settled := make(chan struct{})
	go func() {
		s.sessions.Wait()
		s.handlers.Wait()
		close(settled)
	}()
	var forcedErr error
	select {
	case <-settled:
	case <-ctx.Done():
		forcedErr = ctx.Err()
		s.mu.Lock()
		stragglers := make([]transport.Conn, 0, len(s.conns))
		for c, resting := range s.conns {
			if !resting {
				stragglers = append(stragglers, c)
			}
		}
		s.mu.Unlock()
		for _, c := range stragglers {
			_ = c.Close()
			s.counters.ForcedCloses.Add(1)
		}
		// A closed transport unblocks the handler's pending op, so this
		// terminates promptly.
		<-settled
	}
	s.sweepOrphans()
	if lnErr != nil {
		return lnErr
	}
	return forcedErr
}

// Close stops accepting connections and shuts down within a bounded grace
// period (WithCloseGrace, default DefaultCloseGrace): in-flight requests
// get the grace to finish, then their connections are force-closed. Unlike
// Drain, a forced close is not reported as an error — Close's contract is
// simply "the server is down when I return".
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.closeGrace)
	defer cancel()
	err := s.Drain(ctx)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// makeDurable registers sess in the reattach registry, assigning its
// stable id on first request; repeated hellos are idempotent.
func (s *Server) makeDurable(sess *session) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !sess.durable {
		s.nextSession++
		sess.id = s.nextSession
		sess.durable = true
		sess.attached = true
		s.registry[sess.id] = sess
	}
	return sess.id
}

// session is the per-connection state: one lazily created, pre-initialized
// context per device the client has selected, plus the client's module so
// contexts on later-selected devices can load it.
type session struct {
	srv    *Server
	module *gpu.Module
	// ctxs holds the session's context on each device, indexed by device,
	// nil where it has none yet.
	ctxs []*gpu.Context
	cur  int
	// slotHeld records whether this session occupies an admission slot;
	// written once at creation, before the session is shared.
	slotHeld bool
	// Durable-session state, all guarded by srv.mu. A durable session
	// outlives its connection: when the connection dies without a clean
	// finalize, the session is parked (attached=false) with its contexts
	// intact until a reattach, TTL eviction, or daemon shutdown claims it.
	id       uint64
	durable  bool
	attached bool
	// parkCh closes when the session parks, waking whoever waits for that
	// (see parkedLocked); it is made by the first waiter, so a session
	// nobody waits on never makes one.
	parkCh   chan struct{}
	parkedAt time.Time
	// destroyed is guarded by srv.mu and flips exactly once.
	destroyed bool
	// conn is the connection currently serving the session (nil while
	// parked), guarded by srv.mu; migration closes it to force-park a
	// still-attached session.
	conn transport.Conn
	// migrating marks the session claimed by a migration or standby copy:
	// reattaches are refused busy until the claim resolves. Guarded by
	// srv.mu.
	migrating bool
	// standby marks state this daemon materialized from a checkpoint that
	// no client has claimed yet; a fresher inbound checkpoint may replace
	// it. Cleared on the first successful reattach. Guarded by srv.mu.
	standby bool
	// standbyCopied is the parkedAt instant of the session's last
	// successful standby copy (WithStandbyPeer). Guarded by srv.mu.
	standbyCopied time.Time
	// Batch replay protection (see dispatchBatch): the sequence and result
	// codes of the last executed batch. Only the session's single handler
	// goroutine touches them, and they survive park/reattach so a batch
	// replayed across a reconnect is still deduplicated.
	// lastBatchCodes and spareCodes are the two buffers a batch's codes are
	// written to in turn: a dispatch fills the spare and the two swap when
	// the batch commits, so a dispatch that aborts mid-frame leaves the
	// window describing the previous batch.
	lastBatchSeq   uint64
	lastBatchCodes []uint32
	spareCodes     []uint32
	// Per-connection message storage (DESIGN.md §3), touched only by the
	// session's handler goroutine: dec owns the decoded request, reply the
	// reply being sent. Both are overwritten by the next request.
	dec   protocol.Decoder
	reply replies
	// asm reassembles the chunked copy to the device in flight, made by
	// the first; it is cleared when the copy ends.
	asm *protocol.ChunkAssembler
	// Scheduling identity (see sched.go): class and weight from the
	// session's extended hello (or restored checkpoint), and the session's
	// flow handle per device queue. schedClass must be set explicitly at
	// every creation site — the zero Class is Realtime, the default is
	// Batch. flows is touched only by the session's handler goroutine; the
	// class/weight pair survives park/reattach with the struct and
	// migration via the checkpoint.
	schedClass  sched.Class
	schedWeight uint32
	flows       []*sched.Session
	// ctx0 and flow0 back ctxs and flows on a daemon of one device, the
	// paper's testbed: such a session makes no index of its own.
	ctx0  [1]*gpu.Context
	flow0 [1]*sched.Session
}

// replies holds one reply of each type the session sends, so that
// answering allocates per type, not per request. A reply is rebuilt in
// place and handed to Send, which keeps nothing. The replies every session
// sends — the handshake's, a malloc's and the bare result code — are
// values; the rest are made by the first reply of their type
// (protocol.Put).
type replies struct {
	init         protocol.InitResponse
	hello        protocol.SessionHelloResponse
	code         protocol.CodeResponse
	malloc       protocol.MallocResponse
	chunk        *protocol.Chunk
	toHost       *protocol.MemcpyToHostResponse
	batch        *protocol.BatchResponse
	streamCreate *protocol.StreamCreateResponse
	eventCreate  *protocol.EventCreateResponse
	eventElapsed *protocol.EventElapsedResponse
	deviceCount  *protocol.GetDeviceCountResponse
	deviceProps  *protocol.GetDevicePropertiesResponse
}

// newSession makes a session with no context yet, holding an admission slot
// when the daemon caps sessions.
func (s *Server) newSession() *session {
	ss := &session{srv: s, slotHeld: s.guard.slots != nil, schedClass: sched.Batch}
	if n := len(s.devs); n == 1 {
		ss.ctxs, ss.flows = ss.ctx0[:], ss.flow0[:]
	} else {
		ss.ctxs, ss.flows = make([]*gpu.Context, n), make([]*sched.Session, n)
	}
	return ss
}

// context returns the context of the currently selected device.
func (ss *session) context() *gpu.Context { return ss.ctxs[ss.cur] }

// codeReply builds the bare result-code reply for err.
func (ss *session) codeReply(err error) *protocol.CodeResponse {
	ss.reply.code = protocol.CodeResponse{Err: code(err)}
	return &ss.reply.code
}

// mallocReply builds a cudaMalloc reply.
func (ss *session) mallocReply(err, ptr uint32) *protocol.MallocResponse {
	ss.reply.malloc = protocol.MallocResponse{Err: err, DevPtr: ptr}
	return &ss.reply.malloc
}

// Land implements transport.Lander for the session's request loop. Only a
// well-formed cudaMemcpy to device whose whole destination is a region the
// session's current context owns gets memory — that region; dispatch then
// finds the data in place and charges the copy's modeled time as for any
// other (see gpu.Context.CopyToDevice). Every other frame, a memcpy that is
// going to fail included, is received whole and answered as ever.
func (ss *session) Land(frameLen int, peek []byte) (head int, dst []byte) {
	ptr, size, ok := protocol.PeekMemcpyToDevice(frameLen, peek)
	if !ok {
		return 0, nil
	}
	region, err := ss.context().Region(ptr, uint32(size))
	if err != nil {
		return 0, nil
	}
	return frameLen - size, region
}

// setDevice switches the session's current device, creating its context on
// first use — the one place a session opens a context, at admission, on
// cudaSetDevice and when a checkpoint is restored.
func (ss *session) setDevice(d int) error {
	if d < 0 || d >= len(ss.srv.devs) {
		return cudart.ErrorInvalidValue
	}
	if ss.ctxs[d] == nil {
		ctx := ss.srv.devs[d].NewContextPreinitialized()
		if err := ctx.LoadModule(ss.module); err != nil {
			_ = ctx.Destroy()
			return err
		}
		ss.ctxs[d] = ctx
		ss.srv.devSessions[d].Add(1)
	}
	ss.cur = d
	return nil
}

// destroy releases every context the session created.
func (ss *session) destroy() {
	for _, ctx := range ss.ctxs {
		if ctx != nil {
			_ = ctx.Destroy()
		}
	}
}

// destroySession destroys sess exactly once: its contexts (and with them
// every device allocation) are released and its admission slot is freed.
// All destruction paths — clean finalize, disconnect of a non-durable
// session, TTL eviction, orphan sweep — funnel through here.
func (s *Server) destroySession(sess *session) {
	s.mu.Lock()
	already := sess.destroyed
	sess.destroyed = true
	s.mu.Unlock()
	if already {
		return
	}
	// Safe without s.mu for the same reason sess.destroy is: every path
	// here runs after the session's handler goroutine has exited (or never
	// existed), so nobody is still adding contexts.
	for d, ctx := range sess.ctxs {
		if ctx != nil {
			s.devSessions[d].Add(-1)
		}
	}
	sess.destroy()
	if sess.slotHeld {
		s.guard.releaseSession()
	}
}

// ServeConn serves one connection on any transport (a real socket or a
// simulated pipe): the sessions its client opens on it, one after another.
// Each starts with a handshake and runs the request loop; the session's
// contexts are released when the client finalizes or disconnects. After a
// finalize the connection waits for the next handshake, so a client may
// keep it for its next session (DESIGN.md §5 "Session set-up"); a clean
// close while it waits ends the connection without an error. With a
// request deadline configured, every transport operation of the
// connection runs under the watchdog.
func (s *Server) ServeConn(conn transport.Conn) error { return s.serveConn(conn, nil) }

// serveConn is ServeConn telling settled, when set, each time the
// connection comes to rest between sessions (true) and each time a frame or
// its end wakes it from there (false). SimDaemon counts with it.
func (s *Server) serveConn(conn transport.Conn, settled func(resting bool)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("rcuda: server closed")
	}
	s.handlers.Add(1)
	s.conns[conn] = false
	s.mu.Unlock()
	s.counters.SessionsActive.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.counters.SessionsActive.Add(-1)
		s.handlers.Done()
	}()

	if s.requestDeadline > 0 {
		if dc, ok := conn.(transport.DeadlineCapable); ok {
			dc.SetOpTimeout(s.requestDeadline)
		}
	}
	withinConnCap := s.guard.admitConn()
	defer s.guard.releaseConn()

	// folded is the connection's traffic already added to the counters.
	var folded transport.Stats
	for kept := false; ; kept = true {
		payload, err := conn.Recv()
		if kept {
			var open bool
			if withinConnCap, open = s.wake(conn, settled); !open {
				return nil
			}
		}
		finalized := false
		switch {
		case err == nil:
			s.counters.SessionsStarted.Add(1)
			finalized, err = s.serveSession(conn, payload, withinConnCap)
		case kept && endsKept(err):
			// The client let the kept connection go, or the watchdog
			// closed it idle: no session was open, none is lost.
			return nil
		default:
			err = fmt.Errorf("rcuda: handshake recv: %w", err)
		}
		// The conn's "sent" is the server's outbound traffic.
		st := conn.Stats()
		s.counters.BytesSent.Add(st.BytesSent - folded.BytesSent)
		s.counters.BytesReceived.Add(st.BytesRecv - folded.BytesRecv)
		folded = st
		if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
			s.counters.WatchdogKills.Add(1)
		}
		if !finalized || !s.rest(conn, settled) {
			return err
		}
	}
}

// endsKept reports whether err, ending the wait of a connection between
// sessions, is the connection's ordinary end: a close from either side or
// the watchdog's deadline.
func endsKept(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}

// rest moves conn, whose session has just been released, to the wait for
// its next handshake: it leaves the SessionsActive gauge, gives back its
// WithMaxConns slot, and Drain closes it at once (closeResting). It is
// false once shutdown has begun; the connection then ends instead.
func (s *Server) rest(conn transport.Conn, settled func(bool)) bool {
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.conns[conn] = true
	}
	s.mu.Unlock()
	if closed {
		return false
	}
	s.counters.SessionsActive.Add(-1)
	s.guard.releaseConn()
	if settled != nil {
		settled(true)
	}
	return true
}

// wake undoes rest once the resting conn's receive returns: the connection
// takes a WithMaxConns slot again, as a new one does, and withinConnCap
// says whether it got one. open is false once shutdown has begun: the
// frame, if one came, is dropped with the connection, as a connection
// accepted after shutdown is.
func (s *Server) wake(conn transport.Conn, settled func(bool)) (withinConnCap, open bool) {
	if settled != nil {
		settled(false)
	}
	s.counters.SessionsActive.Add(1)
	withinConnCap = s.guard.admitConn()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return withinConnCap, false
	}
	s.conns[conn] = false
	return withinConnCap, true
}

// closeResting closes every connection waiting between sessions: a drain
// owes them no grace, since they carry no session.
func (s *Server) closeResting() {
	s.mu.Lock()
	var resting []transport.Conn
	for c, idle := range s.conns {
		if idle {
			resting = append(resting, c)
		}
	}
	s.mu.Unlock()
	for _, c := range resting {
		_ = c.Close()
	}
}

// serveSession serves the opening frame payload: a stats probe's reply, or
// the handshake the frame starts and the request loop of the session it
// opens. A connection that opened with a restore has no session; handshake
// has already served it to completion and returns nil for both values.
// finalized reports a probe answered or a session its client finalized,
// after which the connection may carry another opening frame.
func (s *Server) serveSession(conn transport.Conn, payload []byte, withinConnCap bool) (finalized bool, err error) {
	// A stats probe is answered before any admission decision: monitoring
	// must keep working on a server that is refusing new sessions, and a
	// probe never consumes a session slot.
	if _, isProbe := protocol.TryDecodeStatsQuery(payload); isProbe {
		s.counters.StatsQueries.Add(1)
		if err := conn.Send(s.statsReply()); err != nil {
			return false, fmt.Errorf("rcuda: stats send: %w", err)
		}
		return true, nil
	}
	sess, err := s.handshake(conn, payload, withinConnCap)
	if err != nil || sess == nil {
		return false, err
	}
	s.mu.Lock()
	sess.conn = conn
	s.mu.Unlock()
	defer func() {
		// sess.schedClass is handler-goroutine-owned and this defer runs on
		// that goroutine, so it sees any mid-life hello re-class.
		s.countLive(sess, -1)
		s.releaseSession(sess, finalized)
	}()

	stamper, _ := conn.(transport.SendStamper)
	for {
		// The session is the receive's Lander: a bulk cudaMemcpy to device
		// arrives with its data already in the device region it names.
		payload, landed, _, err := transport.RecvLanding(conn, sess)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed) {
				return false, nil // client went away; resources released by defer
			}
			return false, fmt.Errorf("rcuda: recv: %w", err)
		}
		var req protocol.Request
		if landed != nil {
			req, err = sess.dec.DecodeLanded(payload, landed)
		} else {
			req, err = sess.dec.Decode(payload)
		}
		if err != nil {
			return false, fmt.Errorf("rcuda: malformed request: %w", err)
		}
		s.counters.Requests.Add(1)
		dev := sess.cur
		clk := s.devs[dev].Clock()
		// With the scheduler on, a device-touching op waits for its grant
		// before dispatch and yields at the op boundary after — the
		// scheduler's only preemption point (see sched.go).
		var fl *sched.Session
		var kind sched.OpKind
		if s.schedOn {
			if k, bytes := protocol.SchedCost(req); k != protocol.SchedNone {
				kind = schedKinds[k]
				fl = sess.flowOn(dev)
				if aerr := s.queues[dev].Acquire(fl, s.costs[dev].Estimate(kind, bytes), s.doneCh); aerr != nil {
					return false, aerr
				}
			}
		}
		t0 := clk.Now()
		reply, err := s.dispatch(conn, sess, req)
		// The grant covers the device span, read before the reply leaves:
		// its flight holds no device, and a client's wire charge on a shared
		// simulated clock cannot race into the span.
		span := clk.Now() - t0
		if fl != nil {
			s.queues[dev].Release(fl, span)
			s.costs[dev].Observe(kind, span)
		}
		if err == nil && reply != nil {
			err = conn.Send(reply)
		}
		if s.afterDispatch != nil {
			s.afterDispatch(sess)
		}
		// Busy accounting: the wall (or simulated) time from dispatch to the
		// reply's departure, charged to the device's own clock so a broker's
		// least-loaded ranking sees the same quantity the cluster model's
		// per-GPU completion times accumulate.
		end := clk.Now()
		if stamper != nil {
			// The client may already be charging its next request to a
			// shared simulated clock; the reply's departure is the last
			// instant that is this request's alone.
			if at, ok := stamper.LastSendOn(clk); ok && at >= t0 {
				end = at
			}
		}
		if busy := end - t0; busy > 0 {
			s.devBusy[dev].Add(int64(busy))
		}
		if err != nil {
			return false, err
		}
		if reply == nil {
			return true, nil
		}
	}
}

// releaseSession runs when a connection ends. An unfinished durable
// session is parked — contexts, module, and allocations intact — for a
// later reattach; everything else (clean finalize, non-durable session,
// daemon shutting down) is destroyed.
func (s *Server) releaseSession(sess *session, finalized bool) {
	s.mu.Lock()
	sess.conn = nil
	if sess.durable && !finalized && !s.closed && !sess.destroyed {
		s.parkLocked(sess)
		s.mu.Unlock()
		s.counters.SessionsParked.Add(1)
		return
	}
	if sess.durable {
		delete(s.registry, sess.id)
	}
	s.mu.Unlock()
	s.destroySession(sess)
}

// parkLocked detaches sess from its connection — contexts, module and
// allocations intact — wakes its reattach waiters and starts its TTL: the
// one park transition, taken when a connection ends, when a reattach's
// reply cannot be sent and when a restored checkpoint commits. Caller
// holds s.mu.
func (s *Server) parkLocked(sess *session) {
	sess.attached = false
	sess.parkedAt = time.Now()
	if sess.parkCh != nil {
		close(sess.parkCh)
		sess.parkCh = nil
	}
	s.maybeStartGCLocked()
}

// parkedLocked returns the channel the next park of sess closes, making it
// for the first waiter. Caller holds s.mu.
func (sess *session) parkedLocked() <-chan struct{} {
	if sess.parkCh == nil {
		sess.parkCh = make(chan struct{})
	}
	return sess.parkCh
}

// retireLocked removes sess from the registry and tombstones its id with
// the code refusing a late reattach. Caller holds s.mu.
func (s *Server) retireLocked(sess *session, code uint32) {
	delete(s.registry, sess.id)
	s.tombstones[sess.id] = code
}

// lookupLocked returns the session id names or, for an id this daemon holds
// no session under, the code refusing a reattach to it: the tombstone of a
// session it evicted or migrated away, cudaErrorInitialization for any
// other id and for every id once shutdown began. Reattach, claim and quiesce
// all look a session up here. Caller holds s.mu.
func (s *Server) lookupLocked(id uint64) (*session, uint32) {
	if sess, ok := s.registry[id]; ok && !s.closed {
		return sess, 0
	}
	if code, ok := s.tombstones[id]; ok {
		return nil, code
	}
	return nil, uint32(cudart.ErrorInitialization)
}

// maybeStartGCLocked lazily starts the parked-session garbage collector —
// only once, only when a TTL is configured, and never after shutdown
// began. Caller holds s.mu.
func (s *Server) maybeStartGCLocked() {
	if s.parkedTTL <= 0 || s.gcStop != nil || s.closed {
		return
	}
	s.gcStop = make(chan struct{})
	s.gcDone = make(chan struct{})
	interval := s.parkedTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	go s.gcLoop(s.gcStop, s.gcDone, interval)
}

// gcLoop periodically evicts parked sessions whose TTL expired, until
// shutdown stops it.
func (s *Server) gcLoop(stop, done chan struct{}, interval time.Duration) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			s.evictExpired()
		}
	}
}

// evictExpired destroys every parked session older than the TTL that no
// migration or standby copy has claimed, tombstoning it so a late reattach
// gets the typed refusal.
func (s *Server) evictExpired() {
	now := time.Now()
	s.mu.Lock()
	var victims []*session
	for _, sess := range s.registry {
		if !sess.attached && !sess.migrating && now.Sub(sess.parkedAt) >= s.parkedTTL {
			s.retireLocked(sess, protocol.CodeSessionEvicted)
			victims = append(victims, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range victims {
		s.destroySession(sess)
		s.counters.Evictions.Add(1)
		s.logf("rcuda: evicted parked session %d after TTL %v", sess.id, s.parkedTTL)
	}
}

// refuseBusy answers the connection's opening message with the typed busy
// code in whichever response shape the client expects.
func refuseBusy(conn transport.Conn, reattach bool) error {
	if reattach {
		return conn.Send(&protocol.ReattachResponse{Err: protocol.CodeServerBusy})
	}
	return conn.Send(&protocol.InitResponse{Err: protocol.CodeServerBusy})
}

// handshake consumes the initialization message under admission control:
// it resolves the client's GPU module and loads it into a fresh,
// pre-initialized context on the primary device. The daemon pre-initializes
// the CUDA environment, so the client does not pay that delay.
func (s *Server) handshake(conn transport.Conn, payload []byte, withinConnCap bool) (*session, error) {
	// An inbound migration stream from a peer daemon (see migrate.go). It
	// is admitted like a fresh init — connection cap here, session slot
	// inside — and never returns a session: the restored session parks
	// awaiting the redirected client's reattach.
	if rr, isRestore := protocol.TryDecodeSessionRestore(payload); isRestore {
		return nil, s.serveRestoreConn(conn, rr, withinConnCap)
	}
	r, isReattach := protocol.TryDecodeReattach(payload)
	if !withinConnCap {
		s.counters.RejectedConns.Add(1)
		if sendErr := refuseBusy(conn, isReattach); sendErr != nil {
			return nil, sendErr
		}
		return nil, fmt.Errorf("rcuda: connection refused: %w", ErrServerBusy)
	}
	if isReattach {
		// A reattach resumes a session that already holds its admission
		// slot; only the connection cap applies.
		return s.reattachSession(conn, r)
	}
	initReq, err := protocol.DecodeInitRequest(payload)
	if err != nil {
		return nil, fmt.Errorf("rcuda: malformed init: %w", err)
	}
	if admitErr := s.guard.acquireSession(s.doneCh); admitErr != nil {
		s.counters.RejectedSessions.Add(1)
		if sendErr := refuseBusy(conn, false); sendErr != nil {
			return nil, sendErr
		}
		return nil, fmt.Errorf("rcuda: session refused: %w", admitErr)
	}
	sess, err := s.admitSession(conn, initReq.Module)
	if err != nil {
		// The slot was claimed but no session materialized to carry it.
		s.guard.releaseSession()
		return nil, err
	}
	return sess, nil
}

// countLive moves the live-session gauges by n for sess. The handshake
// counts a session before the reply that tells its client it is open, so a
// client whose Open returned never reads its session missing from a
// snapshot or a probe.
func (s *Server) countLive(sess *session, n int64) {
	s.attached.Add(n)
	s.classAttached[sess.schedClass%sched.NumClasses].Add(n)
}

// admitSession completes the handshake of an admitted init request. The
// module image aliases the received frame, so it is resolved here, before
// anything else is received on conn, and only the *gpu.Module is kept.
func (s *Server) admitSession(conn transport.Conn, image []byte) (*session, error) {
	initial := s.initialDevice()
	maj, min := s.devs[initial].Capability()
	sess := s.newSession()
	reply := &sess.reply.init
	*reply = protocol.InitResponse{CapabilityMajor: maj, CapabilityMinor: min}
	mod, err := gpu.ResolveModule(image)
	if err == nil {
		sess.module = mod
		err = sess.setDevice(initial)
	}
	if err != nil {
		reply.Err = uint32(cudart.ErrorInitialization)
		if sendErr := conn.Send(reply); sendErr != nil {
			return nil, sendErr
		}
		return nil, fmt.Errorf("rcuda: module load: %w", err)
	}
	s.countLive(sess, 1)
	if err := conn.Send(reply); err != nil {
		// handshake releases the slot of a session that never started.
		s.countLive(sess, -1)
		sess.slotHeld = false
		s.destroySession(sess)
		return nil, err
	}
	return sess, nil
}

// reattachWait bounds how long a reattaching connection waits for the
// session's previous connection to notice its own death and park the
// session. The wait is only taken in that narrow race; an unknown session
// is refused immediately.
const reattachWait = 2 * time.Second

// reattachSession splices a parked durable session onto a fresh
// connection. The session must exist and be detached; a session still
// marked attached means the old connection's server goroutine has not yet
// observed the fault, so the reattach blocks on the session's park
// notification — no polling — until the park, the wait bound, or server
// shutdown wakes it.
func (s *Server) reattachSession(conn transport.Conn, r *protocol.ReattachRequest) (*session, error) {
	timer := time.NewTimer(reattachWait)
	defer timer.Stop()
	for {
		s.mu.Lock()
		sess, refusal := s.lookupLocked(r.Session)
		if sess != nil && sess.migrating {
			// Mid-migration: transient from the client's perspective — after
			// the commit this id answers with the migrated redirect instead.
			refusal = protocol.CodeServerBusy
		}
		if refusal == 0 && !sess.attached {
			sess.attached = true
			sess.standby = false
			cur := sess.cur
			s.mu.Unlock()
			maj, min := s.devs[cur].Capability()
			s.countLive(sess, 1)
			if err := conn.Send(&protocol.ReattachResponse{CapabilityMajor: maj, CapabilityMinor: min}); err != nil {
				// The splice failed on the wire; park the session again so
				// another reattach (or the GC) can claim it.
				s.countLive(sess, -1)
				s.mu.Lock()
				s.parkLocked(sess)
				s.mu.Unlock()
				return nil, err
			}
			s.counters.Reattaches.Add(1)
			return sess, nil
		}
		var parked <-chan struct{}
		if sess != nil && refusal == 0 {
			parked = sess.parkedLocked()
		}
		s.mu.Unlock()
		if refusal != 0 {
			// A migrated session lives on at another daemon, where the
			// broker has re-pointed the client's route; an evicted one is
			// gone for good.
			_ = conn.Send(&protocol.ReattachResponse{Err: refusal})
			return nil, fmt.Errorf("rcuda: reattach of session %d refused: %w", r.Session, refusalErr(refusal))
		}
		select {
		case <-parked:
			// Claimed on the next loop iteration.
		case <-timer.C:
			// Still attached after the full wait: the old connection never
			// died. Transient from the client's perspective — busy.
			_ = conn.Send(&protocol.ReattachResponse{Err: protocol.CodeServerBusy})
			return nil, fmt.Errorf("rcuda: reattach timed out for attached session %d: %w", r.Session, ErrServerBusy)
		case <-s.doneCh:
			// Loop observes closed and refuses.
		}
	}
}

// refusalErr is the error a reattach refused with code reports.
func refusalErr(code uint32) error {
	switch code {
	case protocol.CodeServerBusy:
		return ErrServerBusy
	case protocol.CodeSessionEvicted:
		return ErrSessionEvicted
	case protocol.CodeSessionMigrated:
		return ErrSessionMigrated
	}
	return errors.New("rcuda: unknown session")
}

// dispatch executes one request and returns its reply, which the request
// loop sends; finalization is the one request with no reply. An operation
// whose whole answer is its result code runs in session.run and is
// answered by one CodeResponse; the others build their own reply.
func (s *Server) dispatch(conn transport.Conn, sess *session, req protocol.Request) (protocol.Message, error) {
	if opErr, ok := sess.run(req); ok {
		return sess.codeReply(opErr), nil
	}
	ctx := sess.context()
	switch r := req.(type) {
	case *protocol.MallocRequest:
		if denial := s.checkQuota(sess, r.Size); denial != cudart.Success {
			s.counters.QuotaDenials.Add(1)
			return sess.mallocReply(uint32(denial), 0), nil
		}
		ptr, cuErr := ctx.Malloc(r.Size)
		return sess.mallocReply(code(cuErr), ptr), nil
	case *protocol.MemcpyToHostRequest:
		// The reply's data is device memory itself (nil on an error), and it
		// leaves after the scheduler grant is released: region isolation
		// (gpu.Context.region) keeps other sessions off it, and the session
		// is synchronous, so nothing writes it meanwhile.
		view, cuErr := ctx.HostView(r.Src, r.Size)
		return protocol.Put(&sess.reply.toHost, protocol.MemcpyToHostResponse{Data: view, Err: code(cuErr)}), nil
	case *protocol.FinalizeRequest:
		return nil, nil

	case *protocol.StreamCreateRequest:
		stream, cuErr := ctx.StreamCreate()
		return protocol.Put(&sess.reply.streamCreate,
			protocol.StreamCreateResponse{Err: code(cuErr), Stream: stream}), nil
	case *protocol.MemcpyToHostAsyncRequest:
		// As for the synchronous copy, the reply's data is device memory
		// itself; HostViewAsyncAt books the transfer on the copy engine and
		// the stream from now, as Local.MemcpyToHostAsync does.
		view, _, cuErr := ctx.HostViewAsyncAt(r.Src, r.Size, r.Stream, s.devs[sess.cur].Clock().Now())
		return protocol.Put(&sess.reply.toHost, protocol.MemcpyToHostResponse{Data: view, Err: code(cuErr)}), nil
	case *protocol.EventCreateRequest:
		event, cuErr := ctx.EventCreate()
		return protocol.Put(&sess.reply.eventCreate,
			protocol.EventCreateResponse{Err: code(cuErr), Event: event}), nil
	case *protocol.EventElapsedRequest:
		elapsed, cuErr := ctx.EventElapsed(r.Start, r.End)
		return protocol.Put(&sess.reply.eventElapsed, protocol.EventElapsedResponse{
			Err:         code(cuErr),
			ElapsedNano: uint64(elapsed),
		}), nil

	case *protocol.GetDeviceCountRequest:
		return protocol.Put(&sess.reply.deviceCount,
			protocol.GetDeviceCountResponse{Count: uint32(len(s.devs))}), nil
	case *protocol.GetDevicePropertiesRequest:
		p := s.devs[sess.cur].Properties()
		return protocol.Put(&sess.reply.deviceProps, protocol.GetDevicePropertiesResponse{
			MemoryBytes:     p.MemoryBytes,
			CapabilityMajor: p.CapabilityMajor,
			CapabilityMinor: p.CapabilityMinor,
			Multiprocessors: p.Multiprocessors,
			ClockMHz:        p.ClockMHz,
			MemoryMBps:      p.MemoryMBps,
			Name:            p.Name,
		}), nil

	case *protocol.MemcpyStreamBeginRequest:
		// A Begin runs the whole chunked sub-protocol inline (chunked.go).
		// r is good until the next receive and the transfer receives its
		// chunks, so it takes a copy.
		return s.serveMemcpyStream(conn, sess, *r)
	case *protocol.Chunk, *protocol.MemcpyStreamEndRequest:
		// Client and server have lost framing, which is fatal for the session.
		return nil, fmt.Errorf("rcuda: %v outside a chunked transfer", req.Op())

	case *protocol.SessionHelloRequest:
		s.applySchedParams(sess, r.Class, r.Weight, true)
		sess.reply.hello = protocol.SessionHelloResponse{Session: s.makeDurable(sess)}
		return &sess.reply.hello, nil
	case *protocol.ReattachRequest:
		// Reattach is only legal as a connection's opening message.
		return nil, fmt.Errorf("rcuda: reattach inside an established session")
	case *protocol.StatsQueryRequest:
		s.counters.StatsQueries.Add(1)
		return s.statsReply(), nil
	case *protocol.BatchRequest:
		return s.dispatchBatch(sess, r)
	default:
		// The migration messages: legal only on a daemon-to-daemon
		// connection, which never reaches the request loop (migrate.go).
		return nil, fmt.Errorf("rcuda: unhandled request %T", req)
	}
}

// run executes a request whose whole answer is its result code — every op
// a batch frame carries, the ones that close a frame, and the rest of that
// shape — whether it arrived on its own (dispatch) or inside a frame
// (dispatchBatch). ok is false for any other request, which the caller
// answers itself.
func (ss *session) run(req protocol.Request) (err error, ok bool) {
	ctx := ss.context()
	switch r := req.(type) {
	case *protocol.LaunchRequest:
		grid := gpu.Dim3{X: r.GridDim[0], Y: r.GridDim[1], Z: 1}
		block := gpu.Dim3{X: r.BlockDim[0], Y: r.BlockDim[1], Z: r.BlockDim[2]}
		return ctx.LaunchAsync(r.Name, grid, block, r.SharedSize, r.Params, r.Stream), true
	case *protocol.MemcpyToDeviceAsyncRequest:
		_, err := ctx.CopyToDeviceAsyncAt(r.Dst, r.Data, r.Stream, ss.srv.srvDevice(ss).Clock().Now())
		return err, true
	case *protocol.EventRecordRequest:
		return ctx.EventRecord(r.Event, r.Stream), true
	case *protocol.MemsetRequest:
		return ctx.Memset(r.DevPtr, byte(r.Value), r.Size), true
	case *protocol.SyncRequest:
		return ctx.Synchronize(), true
	case *protocol.StreamOpRequest:
		switch r.Code {
		case protocol.OpStreamDestroy:
			return ctx.StreamDestroy(r.Stream), true
		case protocol.OpStreamQuery:
			return notReady(ctx.StreamReady(r.Stream)), true
		}
		return ctx.StreamSynchronize(r.Stream), true
	case *protocol.EventOpRequest:
		switch r.Code {
		case protocol.OpEventDestroy:
			return ctx.EventDestroy(r.Event), true
		case protocol.OpEventQuery:
			return notReady(ctx.EventReady(r.Event)), true
		}
		return ctx.EventSynchronize(r.Event), true
	case *protocol.MemcpyToDeviceRequest:
		return ctx.CopyToDevice(r.Dst, r.Data), true
	case *protocol.FreeRequest:
		return ctx.Free(r.DevPtr), true
	case *protocol.SetDeviceRequest:
		return ss.setDevice(int(r.Device)), true
	case *protocol.MemcpyD2DRequest:
		return ctx.CopyDeviceToDevice(r.Dst, r.Src, r.Size), true
	}
	return nil, false
}

// notReady turns a completion query's answer into its result: success once
// the work has drained, cudaErrorNotReady while it is pending.
func notReady(ready bool, err error) error {
	if err == nil && !ready {
		return cudart.ErrorNotReady
	}
	return err
}

// code maps a device-layer error to its wire result code. The translation
// to cudaError_t reuses the cudart mapping so local and remote executions
// surface identical codes.
func code(err error) uint32 {
	return uint32(cudart.Code(cudart.MapError(err)))
}
