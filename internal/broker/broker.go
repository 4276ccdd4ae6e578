// Package broker federates multiple rcudad servers behind a single client:
// a GPU pool. The paper's Figure 1 cluster has a few GPU-equipped nodes
// serving many clients; package cluster answers the sizing question with an
// offline list-scheduling model, and this package is the live counterpart —
// a client-side pool that registers N server endpoints, tracks their load
// through the StatsQuery protocol, places each session on the best server
// under a pluggable policy, and fails sessions over when a server refuses
// admission or dies mid-job.
//
// Sessions opened through the pool are plain rcuda clients: every policy
// decision happens at placement time, after which the application talks to
// its server directly with no broker on the data path.
//
// The placement decisions themselves live in Placer, which Pool wraps with
// real dialing and probing; Autoscaler closes the elasticity loop by
// spawning and retiring endpoints from observed occupancy. Both are reused
// sans sockets by internal/loadgen to drive 10^5–10^6 simulated sessions.
package broker

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/rcuda"
	"rcuda/internal/transport"
)

// ErrNoServers reports that every registered endpoint was tried (or is
// excluded) and none could take the session.
var ErrNoServers = errors.New("broker: no server available")

// Endpoint describes one rcudad server the pool can place sessions on.
type Endpoint struct {
	// Name identifies the server in stats and errors.
	Name string
	// Dial opens a fresh session connection to the server.
	Dial func() (transport.Conn, error)
	// ProbeDial, when set, opens health-probe connections instead of Dial —
	// an out-of-band management network, or in the simulated experiments a
	// pipe on a throwaway clock so probe traffic does not perturb the
	// server's timeline. Nil falls back to Dial.
	ProbeDial func() (transport.Conn, error)
	// Link optionally characterizes the interconnect to this server; the
	// network-aware policy ranks endpoints by estimated transfer time on it.
	Link *netsim.Link
}

// endpointState is the placer's live view of one endpoint.
type endpointState struct {
	ep      Endpoint
	up      bool
	retired bool
	// full marks an endpoint that refused admission (NoteSpill) until a
	// probe or a released session (NoteRelease) says it may have room.
	full bool
	// probeStopped permanently shuts the probe slot (Pool only, under
	// probeMu): the endpoint was retired or the pool closed, so returned
	// connections are refused and closed instead of parked.
	probeStopped bool
	// fullMark mirrors full for the notes that read it without the placer
	// mutex; both change together, under the mutex, in setFull. The four
	// flags and the mirror share one word, which keeps the record in the
	// 208-byte size class.
	fullMark atomic.Bool
	lastErr  error
	// load is the last successful probe reply, nil before the first probe.
	// It points at lastProbe, the placer's own copy of the reply's gauges.
	load      *protocol.StatsReply
	lastProbe protocol.StatsReply
	// placed counts sessions placed on the endpoint since the last probe,
	// so a burst of placements between probes does not stampede the
	// currently least-loaded server.
	placed int64
	// changed is the placer's change counter as of the last change to any
	// of the fields above that a ranking key reads (see placerState.touch).
	changed uint64
	// probeMu guards the persistent probe-connection slot (Pool only). It
	// is held only while checking the connection in or out of the slot —
	// never across the wire exchange itself, so one endpoint stalled on
	// the network cannot stall placements behind the placer mutex
	// (enforced by rcuda-vet's locknet analyzer).
	probeMu sync.Mutex
	// probeConn is the persistent health-probe connection.
	probeConn transport.Conn
}

func (st *endpointState) setFull(full bool) {
	st.full = full
	st.fullMark.Store(full)
}

// checkoutProbeConn takes the endpoint's persistent probe connection out
// of its slot, dialing a fresh one when the slot is empty. The caller owns
// the returned connection until it calls returnProbeConn or closes it.
func (st *endpointState) checkoutProbeConn() (transport.Conn, error) {
	st.probeMu.Lock()
	conn := st.probeConn
	st.probeConn = nil
	st.probeMu.Unlock()
	if conn != nil {
		return conn, nil
	}
	dial := st.ep.ProbeDial
	if dial == nil {
		dial = st.ep.Dial
	}
	return dial()
}

// returnProbeConn parks a healthy connection back in the slot. The loser
// of a return race — or a return after the slot was stopped — closes its
// connection instead.
func (st *endpointState) returnProbeConn(conn transport.Conn) {
	st.probeMu.Lock()
	if !st.probeStopped && st.probeConn == nil {
		st.probeConn = conn
		conn = nil
	}
	st.probeMu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// closeProbeConn permanently shuts the endpoint's probe slot.
func (st *endpointState) closeProbeConn() {
	st.probeMu.Lock()
	st.probeStopped = true
	conn := st.probeConn
	st.probeConn = nil
	st.probeMu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// JobSpec declares what a session is going to do, as far as the placement
// policy cares: either a calibrated case study at a size, or a raw transfer
// volume. The zero value is a valid "unknown" spec.
type JobSpec struct {
	CS   calib.CaseStudy
	Size int
	// TransferBytes is the declared data volume for jobs that are not one
	// of the calibrated case studies; the network-aware policy falls back
	// to ranking by payload time for this many bytes.
	TransferBytes int64
	// Class and Weight are the session's scheduling parameters
	// (rcuda.SchedRealtime/SchedBatch/SchedBestEffort; zero means
	// unspecified). The class-aware policy ranks endpoints by headroom in
	// this class, and the pool declares both in the session's hello so a
	// scheduler-enabled daemon enforces them.
	Class  uint32
	Weight uint32
}

// Pool is a client-side GPU pool over a set of rcudad endpoints.
type Pool struct {
	pl *Placer

	// clientOpt configures every session the pool opens besides its own
	// reconnect route and scheduling class: the retry policy.
	clientOpt rcuda.ClientOption

	// rankMu guards ranking, the kept Ranking Open walks (DESIGN.md §9):
	// an open checks it out, so consecutive opens re-key only the
	// endpoints that changed, and one that finds it out ranks afresh.
	rankMu  sync.Mutex
	ranking *Ranking

	// keptMu guards kept, the session connections closed sessions
	// released, at most one per endpoint index, each waiting for the next
	// session the pool opens there (DESIGN.md §9 "Kept connections").
	// keptStopped refuses more once the pool closed. Like probeMu it is
	// never held across a wire exchange.
	keptMu      sync.Mutex
	kept        []transport.Conn
	keptStopped bool

	probeStop chan struct{}
	probeDone chan struct{}
}

// takeKept checks endpoint idx's kept connection out of its slot, nil when
// it has none.
func (p *Pool) takeKept(idx int) transport.Conn {
	p.keptMu.Lock()
	defer p.keptMu.Unlock()
	if idx >= len(p.kept) {
		return nil
	}
	conn := p.kept[idx]
	p.kept[idx] = nil
	return conn
}

// keep parks a released session connection in endpoint idx's slot. The
// slot holds one: a connection that finds it taken, or the pool closed, is
// closed.
func (p *Pool) keep(idx int, conn transport.Conn) {
	p.keptMu.Lock()
	if !p.keptStopped {
		if idx >= len(p.kept) {
			p.kept = append(p.kept, make([]transport.Conn, idx+1-len(p.kept))...)
		}
		if p.kept[idx] == nil {
			p.kept[idx], conn = conn, nil
		}
	}
	p.keptMu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// Option configures New.
type Option func(*Pool)

// WithPolicy selects the placement policy; the default is LeastLoaded.
func WithPolicy(p Policy) Option {
	return func(pl *Pool) { pl.pl.state.policy = p }
}

// WithProbeInterval starts a background prober that refreshes every
// endpoint's load and health at the given period. Zero (the default) means
// no background probing; call Refresh explicitly.
func WithProbeInterval(d time.Duration) Option {
	return func(pl *Pool) {
		if d > 0 {
			pl.probeStop = make(chan struct{})
			pl.probeDone = make(chan struct{})
			go pl.probeLoop(d)
		}
	}
}

// New builds a pool over the endpoints. All endpoints start marked up;
// probes and placement failures adjust the marks from there.
func New(eps []Endpoint, opts ...Option) (*Pool, error) {
	if len(eps) == 0 {
		return nil, errors.New("broker: a pool needs at least one endpoint")
	}
	p := &Pool{pl: NewPlacer(LeastLoaded), clientOpt: rcuda.WithRetry(4, time.Millisecond)}
	for i, ep := range eps {
		if ep.Dial == nil {
			return nil, fmt.Errorf("broker: endpoint %d (%q) has no Dial", i, ep.Name)
		}
		p.pl.Add(ep)
	}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// Close stops the background prober and closes every probe connection and
// every kept session connection. Sessions already opened through the pool
// are unaffected; one closed later closes its connection.
func (p *Pool) Close() error {
	if p.probeStop != nil {
		close(p.probeStop)
		<-p.probeDone
		p.probeStop = nil
	}
	s := &p.pl.state
	s.mu.Lock()
	eps := append([]*endpointState(nil), s.eps...)
	s.mu.Unlock()
	for _, st := range eps {
		st.closeProbeConn()
	}
	p.keptMu.Lock()
	p.keptStopped = true
	kept := p.kept
	p.kept = nil
	p.keptMu.Unlock()
	for _, conn := range kept {
		if conn != nil {
			_ = conn.Close()
		}
	}
	return nil
}

func (p *Pool) probeLoop(d time.Duration) {
	defer close(p.probeDone)
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-p.probeStop:
			return
		case <-t.C:
			p.Refresh()
		}
	}
}

// Refresh synchronously probes every non-retired endpoint once: it sends a
// StatsQuery on the endpoint's persistent probe connection (dialing one if
// needed), records the load reply, and marks the endpoint up. A failed
// probe marks it down and drops the connection so the next round redials.
// The placer mutex is never held across the wire exchange: the endpoint
// set is snapshotted first, each probe runs against the endpoint's own
// probe-connection slot, and the result is folded back under the lock — so
// one server stalled on the network cannot stall placements.
func (p *Pool) Refresh() {
	s := &p.pl.state
	type target struct {
		idx int
		st  *endpointState
	}
	s.mu.Lock()
	targets := make([]target, 0, len(s.eps))
	for idx, st := range s.eps {
		if !st.retired {
			targets = append(targets, target{idx, st})
		}
	}
	s.mu.Unlock()
	for _, t := range targets {
		reply, err := t.st.probe()
		s.mu.Lock()
		if !t.st.retired {
			s.noteProbe(t.idx, reply, err)
		}
		s.mu.Unlock()
	}
}

// probe performs the wire exchange for one probe. No pool or placer mutex
// is held: the persistent connection is checked out of its slot (dialing a
// fresh one when the slot is empty), used for the exchange, and returned
// on success; a failed probe closes it so the next round redials.
func (st *endpointState) probe() (*protocol.StatsReply, error) {
	conn, err := st.checkoutProbeConn()
	if err != nil {
		return nil, fmt.Errorf("broker: probe dial %s: %w", st.ep.Name, err)
	}
	fail := func(err error) (*protocol.StatsReply, error) {
		_ = conn.Close()
		return nil, fmt.Errorf("broker: probe %s: %w", st.ep.Name, err)
	}
	if err := conn.Send(&protocol.StatsQueryRequest{}); err != nil {
		return fail(err)
	}
	payload, err := conn.Recv()
	if err != nil {
		return fail(err)
	}
	reply, err := protocol.DecodeStatsReply(payload)
	if err != nil {
		return fail(err)
	}
	if cerr := cudart.Error(reply.Err).AsError(); cerr != nil {
		return fail(cerr)
	}
	st.returnProbeConn(conn)
	return reply, nil
}

// Session is a pool-placed rcuda session: a full cudart runtime plus where
// it landed.
type Session struct {
	*rcuda.Client
	// Endpoint names the server the session was placed on (updated when the
	// session is live-migrated).
	Endpoint string
	idx      int
	route    route
}

// Close finalizes the session, keeps its connection for the next session
// the pool opens on the same endpoint (rcuda.Client.Release), and tells
// the placer its endpoint has one session fewer, so a full mark does not
// outlive the capacity it reported. The connection is kept under the
// endpoint the route names now, where a reconnect may have moved it.
func (s *Session) Close() error {
	conn, err := s.Client.Release()
	if conn != nil {
		s.route.p.keep(s.route.current(), conn)
	}
	s.route.p.pl.NoteRelease(s.idx)
	return err
}

// route is the mutable redial target behind a session's reconnect policy.
// The pool hands the client rt.dial instead of a fixed endpoint dialer, so
// placement can be re-pointed after the session is opened: a live migration
// repoints it explicitly, and a dead endpoint fails the redial over to a
// peer that may hold the session restored from a checkpoint.
type route struct {
	p   *Pool
	mu  sync.Mutex
	idx int
}

func (r *route) current() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.idx
}

func (r *route) repoint(idx int) {
	r.mu.Lock()
	r.idx = idx
	r.mu.Unlock()
}

// dial opens a reconnect connection to the session's current endpoint. When
// that endpoint is unreachable — its daemon may have died — the dial fails
// over to the other endpoints in the order a placement of JobSpec{} would
// try them and re-points the route at the first that answers: if the
// session was migrated there, or a standby checkpoint restored it, the
// reattach riding this connection resumes it with zero replay; otherwise
// the reattach is refused and the job-level failover replays as before.
// The route mutex is never held across a dial.
func (r *route) dial() (transport.Conn, error) {
	cur := r.current()
	ep, ok := r.p.pl.endpoint(cur)
	if !ok {
		return nil, fmt.Errorf("broker: route names endpoint %d of %d", cur, r.p.pl.Len())
	}
	conn, err := ep.Dial()
	if err == nil {
		return conn, nil
	}
	var order Ranking
	r.p.pl.Rank(JobSpec{}, &order)
	for idx, more := order.Next(); more; idx, more = order.Next() {
		if idx == cur {
			continue
		}
		cand, _ := r.p.pl.endpoint(idx)
		conn, candErr := cand.Dial()
		if candErr != nil {
			continue
		}
		r.repoint(idx)
		r.p.pl.NoteRestoreFailover()
		return conn, nil
	}
	return nil, fmt.Errorf("broker: redial %s: %w", ep.Name, err)
}

// Open places a new session on the best endpoint under the pool's policy
// and returns it. A server that refuses admission (rcuda.ErrServerBusy)
// spills the session to the next-best endpoint; a server whose connection
// fails outright is marked down and likewise skipped. Open fails with
// ErrNoServers only after every endpoint was tried.
func (p *Pool) Open(module []byte, spec JobSpec) (*Session, error) {
	p.rankMu.Lock()
	r := p.ranking
	p.ranking = nil
	p.rankMu.Unlock()
	if r == nil {
		r = new(Ranking)
	}
	p.pl.Rank(spec, r)
	sess, err := p.open(module, spec, r)
	p.rankMu.Lock()
	p.ranking = r
	p.rankMu.Unlock()
	return sess, err
}

// open walks r from where it stands until an endpoint takes the session.
// The order was fixed under the placer mutex by Rank; the dials happen here,
// outside it.
func (p *Pool) open(module []byte, spec JobSpec, r *Ranking) (*Session, error) {
	var lastErr error
	for {
		idx, ok := r.Next()
		if !ok {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last error: %v)", ErrNoServers, lastErr)
			}
			return nil, ErrNoServers
		}
		sess, err := p.tryOpen(idx, module, spec)
		if err == nil {
			return sess, nil
		}
		lastErr = err
		if errors.Is(err, rcuda.ErrServerBusy) {
			// Admission refusal: the server is healthy, just full. Spill.
			p.pl.NoteSpill(idx)
			continue
		}
		// Connection-level failure: mark the endpoint down until a probe
		// sees it again.
		p.pl.NoteFailure(idx, err)
	}
}

// tryOpen opens a durable session on one endpoint: on its kept
// connection when it has one, else on a fresh dial. A kept connection that
// fails before the server answers the init (rcuda.ErrNoInitReply) was let
// go by the server — idle past its watchdog, drained or restarted — so it
// is closed and the endpoint dialed once, which counts no fault. Any reply, a busy
// refusal included, is final. The session reconnects through a route
// rather than a fixed dialer, so a later migration can re-point it.
func (p *Pool) tryOpen(idx int, module []byte, spec JobSpec) (*Session, error) {
	s := &p.pl.state
	s.mu.Lock()
	ep := s.eps[idx].ep
	s.mu.Unlock()
	sess := &Session{Endpoint: ep.Name, idx: idx, route: route{p: p, idx: idx}}
	// A class and weight of zero are a bare hello's, as if unset.
	open := func(conn transport.Conn) (err error) {
		sess.Client, err = rcuda.Open(conn, module, p.clientOpt,
			rcuda.WithReconnect(sess.route.dial), rcuda.WithSchedClass(spec.Class, spec.Weight))
		if err != nil {
			_ = conn.Close()
		}
		return err
	}
	conn := p.takeKept(idx)
	var err error
	if conn != nil {
		err = open(conn)
	}
	if conn == nil || errors.Is(err, rcuda.ErrNoInitReply) {
		if conn, err = ep.Dial(); err != nil {
			return nil, fmt.Errorf("broker: dial %s: %w", ep.Name, err)
		}
		err = open(conn)
	}
	if err != nil {
		return nil, err
	}
	p.pl.NotePlaced(idx)
	return sess, nil
}

// Migrator is the control interface the pool drives to move a session off
// its source daemon; *rcuda.Server implements it. In a deployment where the
// broker cannot hold daemon handles this would be a control RPC to the
// source, but the wire dialogue that actually moves the state — restore
// handshake, chunk stream, digest-checked commit — is daemon-to-daemon
// either way, and the client never relays a byte.
type Migrator interface {
	MigrateSession(id uint64, dial func() (transport.Conn, error)) (int64, error)
}

// Migrate live-migrates a pool-placed session off its current endpoint,
// picking the destination under the pool's placement policy. See MigrateTo.
func (p *Pool) Migrate(s *Session, src Migrator) error {
	exclude := map[int]bool{s.idx: true}
	idx, ok := p.pl.Pick(JobSpec{}, exclude)
	if !ok {
		return ErrNoServers
	}
	return p.MigrateTo(s, src, idx)
}

// MigrateTo live-migrates a pool-placed session to the endpoint at destIdx:
// the source daemon quiesces the session, streams its checkpoint straight
// to the destination daemon, and destroys its copy on commit; the pool then
// atomically re-points the session's route so the client's next redial —
// typically triggered by the source's CodeSessionMigrated redirect —
// reattaches at the destination with every allocation intact and nothing
// replayed. On failure the session is untouched and still placed where it
// was.
func (p *Pool) MigrateTo(s *Session, src Migrator, destIdx int) error {
	dest, ok := p.pl.endpoint(destIdx)
	if !ok {
		return fmt.Errorf("broker: migrate to unknown endpoint %d", destIdx)
	}
	id := s.SessionID()
	if id == 0 {
		return fmt.Errorf("broker: session on %s is not durable", s.Endpoint)
	}
	n, err := src.MigrateSession(id, dest.Dial)
	if err != nil {
		p.pl.NoteMigrationFailure()
		return fmt.Errorf("broker: migrate session %d to %s: %w", id, dest.Name, err)
	}
	p.pl.NoteMigration(destIdx, n)
	p.pl.NoteRelease(s.idx)
	s.route.repoint(destIdx)
	s.idx = destIdx
	s.Endpoint = dest.Name
	return nil
}

// Run executes job in a pool-placed session with failover: the session is
// opened on the best endpoint, and if the job is interrupted by a lost
// session — the server died and the client's own reattach could not revive
// it — the whole job is replayed from a clean session on the next endpoint
// of the order ranked at submission, so no endpoint is tried twice.
// The job closure must therefore be restartable from scratch: it sees a
// fresh runtime each attempt and must not keep device state across calls.
// CUDA errors and other non-connection failures are returned as-is, without
// failover — they would fail identically anywhere.
func (p *Pool) Run(module []byte, spec JobSpec, job func(cudart.Runtime) error) error {
	var r Ranking
	p.pl.Rank(spec, &r)
	for {
		sess, err := p.open(module, spec, &r)
		if err != nil {
			return err
		}
		jobErr := job(sess)
		closeErr := sess.Close()
		if jobErr == nil {
			if closeErr != nil && isSessionLoss(closeErr) {
				// The job's work completed and verified; a connection that
				// died delivering the finalization is the server's problem.
				return nil
			}
			return closeErr
		}
		if !isSessionLoss(jobErr) {
			return jobErr
		}
		p.pl.NoteFailover()
		p.pl.NoteFailure(sess.idx, jobErr)
	}
}

// isSessionLoss reports whether err means the session (or its server) is
// gone, as opposed to a CUDA-level or application failure.
func isSessionLoss(err error) bool {
	return errors.Is(err, rcuda.ErrSessionLost) ||
		errors.Is(err, transport.ErrClosed) ||
		errors.Is(err, transport.ErrInjectedReset) ||
		errors.Is(err, transport.ErrTruncatedFrame)
}
