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
	counters serverCounters
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
	// force-close stragglers past its deadline.
	conns map[transport.Conn]struct{}
	// registry maps durable session ids to their state so a reconnecting
	// client can reattach; see protocol.SessionHelloRequest.
	registry    map[uint64]*session
	nextSession uint64
	// evicted remembers durable sessions the parked-session GC reclaimed,
	// so a late reattach gets the typed eviction refusal instead of an
	// anonymous one. Ids are 8 bytes each and only abandoned sessions ever
	// land here, so the set stays small for any sane TTL.
	evicted map[uint64]struct{}
	gcStop  chan struct{}
	gcDone  chan struct{}
	// migrated remembers sessions live-migrated to another daemon, so a
	// late reattach gets the CodeSessionMigrated redirect (see migrate.go).
	migrated map[uint64]struct{}
	// migrateChunk is the outbound migration stream's chunk size
	// (WithMigrateChunkSize); zero means protocol.DefaultChunkSize.
	migrateChunk uint32
	// Standby-checkpoint loop state (WithStandbyPeer). standbyCopied maps a
	// session id to the parkedAt instant of its last successful copy,
	// guarded by mu.
	standbyDial   func() (transport.Conn, error)
	standbyEvery  time.Duration
	standbyDone   chan struct{}
	standbyCopied map[uint64]time.Time

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

	// afterDispatch, when set, runs after every dispatch of the request
	// loop. Tests set it to overwrite the session's message storage, so
	// that anything still holding a decoded request reads garbage.
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
		devs:       []*gpu.Device{dev},
		closeGrace: DefaultCloseGrace,
		doneCh:     make(chan struct{}),
		conns:      make(map[transport.Conn]struct{}),
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
		for i, d := range s.devs {
			dev := d
			s.queues[i] = sched.NewQueue(s.schedCfg, dev.Clock())
			s.costs[i] = sched.NewCostModel(func(bytes int) time.Duration {
				return dev.PCIeTime(int64(bytes))
			})
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

// Drain gracefully shuts the server down: it stops accepting, lets
// in-flight sessions run to completion, and — once ctx expires — force
// closes the stragglers' connections so no handler goroutine outlives the
// drain by more than one blocked transport operation. Parked durable
// sessions are destroyed either way. It returns ctx.Err() when force
// closing was needed, nil for a fully graceful drain.
func (s *Server) Drain(ctx context.Context) error {
	lnErr := s.beginShutdown()
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
		for c := range s.conns {
			stragglers = append(stragglers, c)
		}
		s.mu.Unlock()
		for _, c := range stragglers {
			_ = c.Close()
			s.counters.forcedCloses.Add(1)
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
		if s.registry == nil {
			s.registry = make(map[uint64]*session)
		}
		s.nextSession++
		sess.id = s.nextSession
		sess.durable = true
		sess.attached = true
		sess.parkCh = make(chan struct{})
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
	ctxs   map[int]*gpu.Context
	cur    int
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
	// parkCh closes when the session parks, waking reattach waiters; a
	// fresh channel is made each time the session (re)attaches.
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
	// Per-connection message storage (DESIGN.md §23), touched only by the
	// session's handler goroutine: dec owns the decoded request, reply the
	// reply being sent. Both are overwritten by the next request.
	dec   protocol.Decoder
	reply replies
	// Scheduling identity (see sched.go): class and weight from the
	// session's extended hello (or restored checkpoint), and the session's
	// flow handle per device queue. schedClass must be set explicitly at
	// every creation site — the zero Class is Realtime, the default is
	// Batch. flows is touched only by the session's handler goroutine; the
	// class/weight pair survives park/reattach with the struct and
	// migration via the checkpoint.
	schedClass  sched.Class
	schedWeight uint32
	flows       map[int]*sched.Session
}

// replies holds one reply of each type the request loop sends, so that
// answering allocates per type, not per request. A reply is rebuilt in
// place by protocol.Put and handed to Send, which keeps nothing.
type replies struct {
	code         *protocol.CodeResponse
	malloc       *protocol.MallocResponse
	toHost       *protocol.MemcpyToHostResponse
	batch        *protocol.BatchResponse
	streamCreate *protocol.StreamCreateResponse
	eventCreate  *protocol.EventCreateResponse
	eventElapsed *protocol.EventElapsedResponse
	deviceCount  *protocol.GetDeviceCountResponse
	deviceProps  *protocol.GetDevicePropertiesResponse
}

// context returns the context of the currently selected device.
func (ss *session) context() *gpu.Context { return ss.ctxs[ss.cur] }

// codeReply builds the bare result-code reply for err.
func (ss *session) codeReply(err error) *protocol.CodeResponse {
	return protocol.Put(&ss.reply.code, protocol.CodeResponse{Err: code(err)})
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
// first use.
func (ss *session) setDevice(d int) error {
	if d < 0 || d >= len(ss.srv.devs) {
		return cudart.ErrorInvalidValue
	}
	if _, ok := ss.ctxs[d]; !ok {
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
		_ = ctx.Destroy()
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
	for d := range sess.ctxs {
		s.devSessions[d].Add(-1)
	}
	sess.destroy()
	if sess.slotHeld {
		s.guard.releaseSession()
	}
}

// ServeConn serves one client session on any transport (a real socket or a
// simulated pipe). It performs the initialization handshake, enters the
// request loop, and releases the session's contexts when the client
// finalizes or disconnects. With a request deadline configured, every
// transport operation of the session runs under the watchdog.
func (s *Server) ServeConn(conn transport.Conn) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("rcuda: server closed")
	}
	s.handlers.Add(1)
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.handlers.Done()
	}()

	s.counters.sessionsStarted.Add(1)
	s.counters.sessionsActive.Add(1)
	defer s.counters.sessionsActive.Add(-1)
	defer func() {
		st := conn.Stats()
		// The conn's "sent" is the server's outbound traffic.
		s.counters.bytesSent.Add(st.BytesSent)
		s.counters.bytesReceived.Add(st.BytesRecv)
	}()

	if s.requestDeadline > 0 {
		if dc, ok := conn.(transport.DeadlineCapable); ok {
			dc.SetOpTimeout(s.requestDeadline)
		}
	}
	withinConnCap := s.guard.admitConn()
	defer s.guard.releaseConn()

	err := s.serveSession(conn, withinConnCap)
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		s.counters.watchdogKills.Add(1)
	}
	return err
}

// serveSession runs the handshake and request loop of one connection. A
// connection that opened with a stats probe has no session; handshake has
// already served it to completion and returns nil for both values.
func (s *Server) serveSession(conn transport.Conn, withinConnCap bool) error {
	sess, err := s.handshake(conn, withinConnCap)
	if err != nil {
		return err
	}
	if sess == nil {
		return nil
	}
	s.mu.Lock()
	sess.conn = conn
	s.mu.Unlock()
	s.attached.Add(1)
	s.classAttached[sess.schedClass%sched.NumClasses].Add(1)
	finalized := false
	defer func() {
		// sess.schedClass is handler-goroutine-owned and this defer runs on
		// that goroutine, so it sees any mid-life hello re-class.
		s.classAttached[sess.schedClass%sched.NumClasses].Add(-1)
		s.attached.Add(-1)
		s.releaseSession(sess, finalized)
	}()

	stamper, _ := conn.(transport.SendStamper)
	for {
		// The session is the receive's Lander: a bulk cudaMemcpy to device
		// arrives with its data already in the device region it names.
		payload, landed, _, err := transport.RecvLanding(conn, sess)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed) {
				return nil // client went away; resources released by defer
			}
			return fmt.Errorf("rcuda: recv: %w", err)
		}
		var req protocol.Request
		if landed != nil {
			req, err = sess.dec.DecodeLanded(payload, landed)
		} else {
			req, err = sess.dec.Decode(payload)
		}
		if err != nil {
			return fmt.Errorf("rcuda: malformed request: %w", err)
		}
		s.counters.requests.Add(1)
		// Busy accounting: the wall (or simulated) time dispatch holds the
		// session's current device, charged to that device's own clock so a
		// broker's least-loaded ranking sees the same quantity the cluster
		// model's per-GPU completion times accumulate.
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
					return aerr
				}
			}
		}
		t0 := clk.Now()
		done, err := s.dispatch(conn, sess, req)
		if s.afterDispatch != nil {
			s.afterDispatch(sess)
		}
		end := clk.Now()
		if stamper != nil {
			// The client may already be charging its next request to a
			// shared simulated clock; the reply's departure is the last
			// instant that is this request's alone.
			if at, ok := stamper.LastSendOn(clk); ok && at >= t0 {
				end = at
			}
		}
		busy := end - t0
		if fl != nil {
			s.queues[dev].Release(fl, busy)
			s.costs[dev].Observe(kind, busy)
		}
		if busy > 0 {
			s.devBusy[dev].Add(int64(busy))
		}
		if err != nil {
			return err
		}
		if done {
			finalized = true
			return nil
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
		sess.attached = false
		sess.parkedAt = time.Now()
		close(sess.parkCh)
		s.maybeStartGCLocked()
		s.mu.Unlock()
		s.counters.sessionsParked.Add(1)
		return
	}
	if sess.durable {
		delete(s.registry, sess.id)
	}
	s.mu.Unlock()
	s.destroySession(sess)
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

// evictExpired destroys every parked session older than the TTL, recording
// it in the eviction tombstones so a late reattach gets the typed refusal.
func (s *Server) evictExpired() {
	now := time.Now()
	s.mu.Lock()
	var victims []*session
	for id, sess := range s.registry {
		if !sess.attached && !sess.destroyed && now.Sub(sess.parkedAt) >= s.parkedTTL {
			delete(s.registry, id)
			if s.evicted == nil {
				s.evicted = make(map[uint64]struct{})
			}
			s.evicted[id] = struct{}{}
			victims = append(victims, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range victims {
		s.destroySession(sess)
		s.counters.evictions.Add(1)
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
func (s *Server) handshake(conn transport.Conn, withinConnCap bool) (*session, error) {
	payload, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("rcuda: handshake recv: %w", err)
	}
	// A stats probe is answered before any admission decision: monitoring
	// must keep working on a server that is refusing new sessions, and a
	// probe connection never consumes a session slot.
	if q, isProbe := protocol.TryDecodeStatsQuery(payload); isProbe {
		return nil, s.serveStatsConn(conn, q)
	}
	// An inbound migration stream from a peer daemon (see migrate.go). It
	// is admitted like a fresh init — connection cap here, session slot
	// inside — and never returns a session: the restored session parks
	// awaiting the redirected client's reattach.
	if rr, isRestore := protocol.TryDecodeSessionRestore(payload); isRestore {
		return nil, s.serveRestoreConn(conn, rr, withinConnCap)
	}
	r, isReattach := protocol.TryDecodeReattach(payload)
	if !withinConnCap {
		s.counters.rejectedConns.Add(1)
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
		s.counters.rejectedSessions.Add(1)
		if sendErr := refuseBusy(conn, false); sendErr != nil {
			return nil, sendErr
		}
		return nil, fmt.Errorf("rcuda: session refused: %w", admitErr)
	}
	sess, err := s.admitSession(conn, initReq)
	if err != nil {
		// The slot was claimed but no session materialized to carry it.
		s.guard.releaseSession()
		return nil, err
	}
	return sess, nil
}

// admitSession completes the handshake of an admitted init request. The
// request's module image aliases the received frame, so it is resolved here,
// before anything else is received on conn, and only the *gpu.Module is kept.
func (s *Server) admitSession(conn transport.Conn, initReq *protocol.InitRequest) (*session, error) {
	initial := s.initialDevice()
	maj, min := s.devs[initial].Capability()
	mod, err := gpu.ResolveModule(initReq.Module)
	if err == nil {
		ctx := s.devs[initial].NewContextPreinitialized()
		if loadErr := ctx.LoadModule(mod); loadErr != nil {
			_ = ctx.Destroy()
			err = loadErr
		} else {
			if sendErr := conn.Send(&protocol.InitResponse{CapabilityMajor: maj, CapabilityMinor: min}); sendErr != nil {
				_ = ctx.Destroy()
				return nil, sendErr
			}
			s.devSessions[initial].Add(1)
			return &session{
				srv:        s,
				module:     mod,
				ctxs:       map[int]*gpu.Context{initial: ctx},
				cur:        initial,
				slotHeld:   s.guard.slots != nil,
				schedClass: sched.Batch,
			}, nil
		}
	}
	sendErr := conn.Send(&protocol.InitResponse{
		CapabilityMajor: maj,
		CapabilityMinor: min,
		Err:             uint32(cudart.ErrorInitialization),
	})
	if sendErr != nil {
		return nil, sendErr
	}
	return nil, fmt.Errorf("rcuda: module load: %w", err)
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
		sess, known := s.registry[r.Session]
		_, wasEvicted := s.evicted[r.Session]
		_, wasMigrated := s.migrated[r.Session]
		closed := s.closed
		migrating := known && sess.migrating
		if known && !closed && !sess.attached && !migrating {
			sess.attached = true
			sess.standby = false
			sess.parkCh = make(chan struct{})
			cur := sess.cur
			s.mu.Unlock()
			maj, min := s.devs[cur].Capability()
			if err := conn.Send(&protocol.ReattachResponse{CapabilityMajor: maj, CapabilityMinor: min}); err != nil {
				// The splice failed on the wire; park the session again so
				// another reattach (or the GC) can claim it.
				s.mu.Lock()
				sess.attached = false
				sess.parkedAt = time.Now()
				close(sess.parkCh)
				s.maybeStartGCLocked()
				s.mu.Unlock()
				return nil, err
			}
			s.counters.reattaches.Add(1)
			return sess, nil
		}
		var parked <-chan struct{}
		if known && sess.attached {
			parked = sess.parkCh
		}
		s.mu.Unlock()
		switch {
		case wasMigrated:
			// Redirect: the session lives on, on another daemon. The broker
			// has re-pointed the client's route; the next redial lands there.
			_ = conn.Send(&protocol.ReattachResponse{Err: protocol.CodeSessionMigrated})
			return nil, fmt.Errorf("rcuda: reattach redirected: session %d: %w", r.Session, ErrSessionMigrated)
		case wasEvicted:
			_ = conn.Send(&protocol.ReattachResponse{Err: protocol.CodeSessionEvicted})
			return nil, fmt.Errorf("rcuda: reattach refused: session %d: %w", r.Session, ErrSessionEvicted)
		case !known || closed:
			_ = conn.Send(&protocol.ReattachResponse{Err: uint32(cudart.ErrorInitialization)})
			return nil, fmt.Errorf("rcuda: reattach refused for session %d (known=%v)", r.Session, known)
		case migrating:
			// Mid-migration: transient from the client's perspective — after
			// the commit this id answers with the migrated redirect instead.
			_ = conn.Send(&protocol.ReattachResponse{Err: protocol.CodeServerBusy})
			return nil, fmt.Errorf("rcuda: reattach during migration of session %d: %w", r.Session, ErrServerBusy)
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

// dispatch executes one request and sends its response. It reports
// done=true on finalization. An operation that returns nothing but its
// result code leaves the switch with that result in opErr and is answered
// by the one CodeResponse at the end; the others send their own reply.
func (s *Server) dispatch(conn transport.Conn, sess *session, req protocol.Request) (done bool, err error) {
	ctx := sess.context()
	var opErr error
	switch r := req.(type) {
	case *protocol.MallocRequest:
		if denial := s.checkQuota(sess, r.Size); denial != cudart.Success {
			s.counters.quotaDenials.Add(1)
			return false, conn.Send(protocol.Put(&sess.reply.malloc, protocol.MallocResponse{Err: uint32(denial)}))
		}
		ptr, cuErr := ctx.Malloc(r.Size)
		return false, conn.Send(protocol.Put(&sess.reply.malloc, protocol.MallocResponse{Err: code(cuErr), DevPtr: ptr}))
	case *protocol.MemcpyToDeviceRequest:
		opErr = ctx.CopyToDevice(r.Dst, r.Data)
	case *protocol.MemcpyToHostRequest:
		// The reply's data is device memory itself (nil on an error): the
		// session is synchronous and holds its scheduler grant until Send
		// returns, so nothing writes the region meanwhile.
		view, cuErr := ctx.HostView(r.Src, r.Size)
		return false, conn.Send(protocol.Put(&sess.reply.toHost, protocol.MemcpyToHostResponse{Data: view, Err: code(cuErr)}))
	case *protocol.LaunchRequest:
		grid := gpu.Dim3{X: r.GridDim[0], Y: r.GridDim[1], Z: 1}
		block := gpu.Dim3{X: r.BlockDim[0], Y: r.BlockDim[1], Z: r.BlockDim[2]}
		opErr = ctx.LaunchAsync(r.Name, grid, block, r.SharedSize, r.Params, r.Stream)
	case *protocol.FreeRequest:
		opErr = ctx.Free(r.DevPtr)
	case *protocol.SyncRequest, *protocol.StreamOpRequest, *protocol.EventOpRequest:
		opErr = settle(ctx, req)
	case *protocol.FinalizeRequest:
		return true, nil

	case *protocol.StreamCreateRequest:
		stream, cuErr := ctx.StreamCreate()
		return false, conn.Send(protocol.Put(&sess.reply.streamCreate,
			protocol.StreamCreateResponse{Err: code(cuErr), Stream: stream}))
	case *protocol.MemcpyToDeviceAsyncRequest:
		opErr = ctx.CopyToDeviceAsync(r.Dst, r.Data, r.Stream)
	case *protocol.MemcpyToHostAsyncRequest:
		// As for the synchronous copy, the reply's data is device memory
		// itself; the transfer is booked on the copy engine and the stream
		// from now, as CopyToHostAsync books it.
		view, _, cuErr := ctx.HostViewAsyncAt(r.Src, r.Size, r.Stream, s.devs[sess.cur].Clock().Now())
		return false, conn.Send(protocol.Put(&sess.reply.toHost, protocol.MemcpyToHostResponse{Data: view, Err: code(cuErr)}))
	case *protocol.EventCreateRequest:
		event, cuErr := ctx.EventCreate()
		return false, conn.Send(protocol.Put(&sess.reply.eventCreate,
			protocol.EventCreateResponse{Err: code(cuErr), Event: event}))
	case *protocol.EventRecordRequest:
		opErr = ctx.EventRecord(r.Event, r.Stream)
	case *protocol.EventElapsedRequest:
		elapsed, cuErr := ctx.EventElapsed(r.Start, r.End)
		return false, conn.Send(protocol.Put(&sess.reply.eventElapsed, protocol.EventElapsedResponse{
			Err:         code(cuErr),
			ElapsedNano: uint64(elapsed),
		}))

	case *protocol.GetDeviceCountRequest:
		return false, conn.Send(protocol.Put(&sess.reply.deviceCount,
			protocol.GetDeviceCountResponse{Count: uint32(len(s.devs))}))
	case *protocol.SetDeviceRequest:
		opErr = sess.setDevice(int(r.Device))
	case *protocol.GetDevicePropertiesRequest:
		p := s.devs[sess.cur].Properties()
		return false, conn.Send(protocol.Put(&sess.reply.deviceProps, protocol.GetDevicePropertiesResponse{
			MemoryBytes:     p.MemoryBytes,
			CapabilityMajor: p.CapabilityMajor,
			CapabilityMinor: p.CapabilityMinor,
			Multiprocessors: p.Multiprocessors,
			ClockMHz:        p.ClockMHz,
			MemoryMBps:      p.MemoryMBps,
			Name:            p.Name,
		}))
	case *protocol.MemsetRequest:
		opErr = ctx.Memset(r.DevPtr, byte(r.Value), r.Size)
	case *protocol.MemcpyD2DRequest:
		opErr = ctx.CopyDeviceToDevice(r.Dst, r.Src, r.Size)

	case *protocol.MemcpyStreamBeginRequest:
		// A Begin runs the whole chunked sub-protocol inline (chunked.go).
		// r is good until the next receive and the transfer receives its
		// chunks, so it takes a copy.
		return false, s.serveMemcpyStream(conn, sess, *r)
	case *protocol.MemcpyStreamChunk, *protocol.MemcpyStreamEndRequest:
		// Client and server have lost framing, which is fatal for the session.
		return false, fmt.Errorf("rcuda: %v outside a chunked transfer", req.Op())

	case *protocol.SessionHelloRequest:
		s.applySchedParams(sess, r.Class, r.Weight, true)
		return false, conn.Send(&protocol.SessionHelloResponse{Session: s.makeDurable(sess)})
	case *protocol.ReattachRequest:
		// Reattach is only legal as a connection's opening message.
		return false, fmt.Errorf("rcuda: reattach inside an established session")
	case *protocol.StatsQueryRequest:
		s.counters.statsQueries.Add(1)
		return false, conn.Send(s.statsReply())
	case *protocol.BatchRequest:
		return false, s.dispatchBatch(conn, sess, r)
	default:
		// The migration messages: legal only on a daemon-to-daemon
		// connection, which never reaches the request loop (migrate.go).
		return false, fmt.Errorf("rcuda: unhandled request %T", req)
	}
	return false, conn.Send(sess.codeReply(opErr))
}

// settle runs a request of the three shapes the synchronization and
// completion queries share — device, stream or event — whether it arrived
// on its own or closing a batch frame (dispatchBatch); the two destroys
// share the stream and event shapes and run here too, but never close a
// frame.
func settle(ctx *gpu.Context, req protocol.Request) error {
	switch r := req.(type) {
	case *protocol.StreamOpRequest:
		switch r.Code {
		case protocol.OpStreamDestroy:
			return ctx.StreamDestroy(r.Stream)
		case protocol.OpStreamQuery:
			return notReady(ctx.StreamReady(r.Stream))
		}
		return ctx.StreamSynchronize(r.Stream)
	case *protocol.EventOpRequest:
		switch r.Code {
		case protocol.OpEventDestroy:
			return ctx.EventDestroy(r.Event)
		case protocol.OpEventQuery:
			return notReady(ctx.EventReady(r.Event))
		}
		return ctx.EventSynchronize(r.Event)
	}
	return ctx.Synchronize()
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
	return uint32(cudart.Code(mapToCudaError(err)))
}

func mapToCudaError(err error) error {
	// The nil case returns before ce is declared: errors.As makes &ce
	// escape, and a successful op must not pay a heap allocation for it.
	if err == nil {
		return nil
	}
	var ce cudart.Error
	switch {
	case errors.As(err, &ce):
		return ce
	case errors.Is(err, gpu.ErrOutOfMemory):
		return cudart.ErrorMemoryAllocation
	case errors.Is(err, gpu.ErrZeroSize):
		return cudart.ErrorInvalidValue
	case errors.Is(err, gpu.ErrInvalidDevPtr):
		return cudart.ErrorInvalidDevicePointer
	case errors.Is(err, gpu.ErrUnknownKernel):
		return cudart.ErrorLaunchFailure
	case errors.Is(err, gpu.ErrInvalidLaunch):
		return cudart.ErrorInvalidConfiguration
	case errors.Is(err, gpu.ErrInvalidStream), errors.Is(err, gpu.ErrInvalidEvent):
		return cudart.ErrorInvalidValue
	case errors.Is(err, gpu.ErrContextDestroyed), errors.Is(err, gpu.ErrUnknownModule):
		return cudart.ErrorInitialization
	default:
		return cudart.ErrorUnknown
	}
}
