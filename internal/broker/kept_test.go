package broker

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/rcuda"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// keptDaemon is a daemon behind one endpoint, over loopback TCP or a
// SimDaemon, that can be restarted (a new server behind the same endpoint)
// or taken away (its dials refused).
type keptDaemon struct {
	t    *testing.T
	tcp  bool
	opts []rcuda.ServerOption

	// dials counts the endpoint's dials.
	dials atomic.Int64

	mu   sync.Mutex
	srv  *rcuda.Server
	dial func() (transport.Conn, error)
	stop func()
	// dialed is every connection the endpoint's dials made.
	dialed []transport.Conn
}

func newKeptDaemon(t *testing.T, tcp bool, opts ...rcuda.ServerOption) *keptDaemon {
	d := &keptDaemon{t: t, tcp: tcp, opts: opts}
	d.start()
	t.Cleanup(d.gone)
	return d
}

// start serves a fresh server behind the endpoint.
func (d *keptDaemon) start() {
	d.t.Helper()
	if !d.tcp {
		clk := vclock.NewSim()
		srv := rcuda.NewServer(gpu.New(gpu.Config{Clock: clk}), d.opts...)
		d.mu.Lock()
		d.srv, d.dial = srv, rcuda.NewSimDaemon(srv, netsim.IB40G(), clk, nil).Dial
		d.stop = func() { _ = srv.Close() }
		d.mu.Unlock()
		return
	}
	srv := rcuda.NewServer(gpu.New(gpu.Config{Clock: vclock.NewWall()}), d.opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	d.mu.Lock()
	d.srv = srv
	d.dial = func() (transport.Conn, error) { return transport.DialTCP(addr) }
	d.stop = func() {
		if err := srv.Close(); err != nil {
			d.t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			d.t.Errorf("serve: %v", err)
		}
	}
	d.mu.Unlock()
}

// server returns the server behind the endpoint now.
func (d *keptDaemon) server() *rcuda.Server {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.srv
}

// restart closes the server, and with it every connection it kept, and
// serves a fresh one behind the same endpoint.
func (d *keptDaemon) restart() {
	d.gone()
	d.start()
}

// gone closes the server; the endpoint's dials are refused from now on.
func (d *keptDaemon) gone() {
	d.mu.Lock()
	stop := d.stop
	d.stop = nil
	d.dial = func() (transport.Conn, error) { return nil, errors.New("connection refused") }
	d.mu.Unlock()
	if stop != nil {
		stop()
	}
}

func (d *keptDaemon) endpoint(name string) Endpoint {
	return Endpoint{Name: name, Dial: func() (transport.Conn, error) {
		d.dials.Add(1)
		d.mu.Lock()
		dial := d.dial
		d.mu.Unlock()
		conn, err := dial()
		if err == nil {
			d.mu.Lock()
			d.dialed = append(d.dialed, conn)
			d.mu.Unlock()
		}
		return conn, err
	}}
}

// openConns counts the connections the endpoint's dials made that nobody
// has closed: a frame still leaves on them. It sends a stats query on each
// such connection, whose reply nobody reads, so it is a test's last look.
func (d *keptDaemon) openConns() int {
	d.mu.Lock()
	dialed := append([]transport.Conn(nil), d.dialed...)
	d.mu.Unlock()
	n := 0
	for _, conn := range dialed {
		if conn.Send(&protocol.StatsQueryRequest{}) == nil {
			n++
		}
	}
	return n
}

// eachTransport runs f over loopback TCP and over SimDaemon.
func eachTransport(t *testing.T, f func(t *testing.T, tcp bool)) {
	t.Run("tcp", func(t *testing.T) { f(t, true) })
	t.Run("sim", func(t *testing.T) { f(t, false) })
}

// cycle opens a session through pool, mallocs and frees in it and closes
// it, returning the endpoint it was placed on.
func cycle(t *testing.T, pool *Pool, img []byte) string {
	t.Helper()
	sess, err := pool.Open(img, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := sess.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Free(ptr); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	return sess.Endpoint
}

// wantPoolStats fails unless the pool counted the given placements and
// markdowns, and no spill or failover.
func wantPoolStats(t *testing.T, pool *Pool, placements, markdowns int64) {
	t.Helper()
	s := pool.Stats()
	if s.Placements != placements || s.Markdowns != markdowns || s.Spills != 0 || s.Failovers != 0 {
		t.Errorf("pool stats %+v; want %d placements, %d markdowns, no spill or failover", s, placements, markdowns)
	}
}

// waitRest waits until srv serves no connection but ones at rest. A
// session's Close returns once its finalize left; the handler rests only
// after it has released the session.
func waitRest(t *testing.T, srv *rcuda.Server) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); srv.Stats().SessionsActive != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the handler never came to rest after the session closed")
		}
	}
}

// TestKeptConnFaultDaemonRestarts: the daemon closes the connection the
// pool keeps for it, and is back. The next Open finds the kept connection
// dead before the init's reply and dials once more, which counts no
// markdown, spill or failover.
func TestKeptConnFaultDaemonRestarts(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		d := newKeptDaemon(t, tcp)
		pool, err := New([]Endpoint{d.endpoint("a")})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		img := moduleImage(t, calib.MM)
		cycle(t, pool, img)
		cycle(t, pool, img)
		if n := d.dials.Load(); n != 1 {
			t.Fatalf("two sessions made %d dials, want the second on the kept connection", n)
		}
		d.restart()
		cycle(t, pool, img)
		wantPoolStats(t, pool, 3, 0)
		if n := d.dials.Load(); n != 2 {
			t.Errorf("%d dials, want one more after the restart", n)
		}
		if st := d.server().Stats(); st.SessionsStarted != 1 {
			t.Errorf("the restarted daemon started %d sessions, want the redialed one", st.SessionsStarted)
		}
	})
}

// TestKeptConnFaultDaemonGone: the daemon behind a kept connection is gone
// for good. The next Open placed there redials, is refused, and moves on
// to the next endpoint, whose kept connection takes the session. The one
// markdown is the refused dial's, as in a pool that keeps nothing; the
// dead kept connection adds none, and no spill or failover is counted.
func TestKeptConnFaultDaemonGone(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		a, b := newKeptDaemon(t, tcp), newKeptDaemon(t, tcp)
		pool, err := New([]Endpoint{a.endpoint("a"), b.endpoint("b")}, WithPolicy(RoundRobin))
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		img := moduleImage(t, calib.MM)
		if got := cycle(t, pool, img) + cycle(t, pool, img); got != "ab" {
			t.Fatalf("round robin placed on %q, want a then b", got)
		}
		a.gone()
		if got := cycle(t, pool, img); got != "b" {
			t.Fatalf("placed on %q with a gone, want b", got)
		}
		wantPoolStats(t, pool, 3, 1)
		if st := b.server().Stats(); st.SessionsStarted != 2 {
			t.Errorf("b started %d sessions, want 2", st.SessionsStarted)
		}
	})
}

// TestKeptConnRefusalIsFinal: a daemon that answers the init on a kept
// connection with a busy refusal is full, not gone. The pool spills off
// it and does not dial it again.
func TestKeptConnRefusalIsFinal(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		d := newKeptDaemon(t, tcp, rcuda.WithMaxSessions(1))
		pool, err := New([]Endpoint{d.endpoint("a")})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		img := moduleImage(t, calib.MM)
		cycle(t, pool, img)
		waitRest(t, d.server())
		// Fill the daemon from outside the pool.
		hogConn, err := d.endpoint("hog").Dial()
		if err != nil {
			t.Fatal(err)
		}
		hog, err := rcuda.Open(hogConn, img)
		if err != nil {
			t.Fatal(err)
		}
		defer hog.Close()
		if _, err := pool.Open(img, JobSpec{}); !errors.Is(err, ErrNoServers) {
			t.Fatalf("open on a full daemon: %v, want ErrNoServers", err)
		}
		if n := d.dials.Load(); n != 2 {
			t.Errorf("%d dials, want the pool's first and the hog's: a refusal on the kept connection is final", n)
		}
		if s := pool.Stats(); s.Spills != 1 || s.Markdowns != 0 {
			t.Errorf("pool stats %+v; want one spill and no markdown", s)
		}
	})
}

// TestKeptConnFaultWatchdog: the request watchdog closes a connection the
// pool keeps idle. That close kills no session and counts no watchdog
// kill, and the next Open redials without a markdown.
func TestKeptConnFaultWatchdog(t *testing.T) {
	const deadline = 50 * time.Millisecond
	eachTransport(t, func(t *testing.T, tcp bool) {
		d := newKeptDaemon(t, tcp, rcuda.WithRequestDeadline(deadline))
		pool, err := New([]Endpoint{d.endpoint("a")})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		img := moduleImage(t, calib.MM)
		cycle(t, pool, img)
		time.Sleep(4 * deadline)
		cycle(t, pool, img)
		wantPoolStats(t, pool, 2, 0)
		if n := d.dials.Load(); n != 2 {
			t.Errorf("%d dials, want a second once the watchdog closed the kept connection", n)
		}
		st := d.server().Stats()
		if st.WatchdogKills != 0 || st.SessionsParked != 0 || st.SessionsStarted != 2 {
			t.Errorf("server counted %d watchdog kills, %d parked sessions, %d started; want 0, 0 and 2",
				st.WatchdogKills, st.SessionsParked, st.SessionsStarted)
		}
	})
}

// TestKeptConnFaultDrainClosesAtOnce: a drain closes the connection a
// pool keeps waiting between sessions at once: it returns in
// milliseconds, well inside its grace, and forces nothing.
func TestKeptConnFaultDrainClosesAtOnce(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		d := newKeptDaemon(t, tcp)
		pool, err := New([]Endpoint{d.endpoint("a")})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		cycle(t, pool, moduleImage(t, calib.MM))
		srv := d.server()
		waitRest(t, srv)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		start := time.Now()
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("drain with a kept connection took %v, want milliseconds", took)
		}
		if n := srv.Stats().ForcedCloses; n != 0 {
			t.Errorf("drain forced %d closes, want 0", n)
		}
	})
}

// wantProbes fails unless the pool counted the given probes, none failed
// and no endpoint was marked down.
func wantProbes(t *testing.T, pool *Pool, probes int64) {
	t.Helper()
	if s := pool.Stats(); s.Probes != probes || s.ProbeFailures != 0 || s.Markdowns != 0 {
		t.Errorf("pool stats %+v; want %d probes, none failed, no markdown", s, probes)
	}
	for _, ep := range pool.Endpoints() {
		if !ep.Up {
			t.Errorf("endpoint %s is down: %s", ep.Name, ep.LastErr)
		}
	}
}

// TestKeptConnProbeThenOpenDialsOnce: probes and the sessions after them
// ride one connection. The pool dials the endpoint once, the daemon keeps
// that one connection resting between uses, and each probe and each
// session is an opening frame on it.
func TestKeptConnProbeThenOpenDialsOnce(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		d := newKeptDaemon(t, tcp)
		pool, err := New([]Endpoint{d.endpoint("a")})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		srv := d.server()
		pool.Refresh()
		pool.Refresh()
		waitRest(t, srv)
		cycle(t, pool, moduleImage(t, calib.MM))
		pool.Refresh()
		wantProbes(t, pool, 3)
		wantPoolStats(t, pool, 1, 0)
		if n := d.dials.Load(); n != 1 {
			t.Errorf("three probes and a session made %d dials, want 1", n)
		}
		if st := srv.Stats(); st.SessionsStarted != 4 || st.StatsQueries != 3 {
			t.Errorf("daemon counted %d opening frames and %d stats queries, want 4 and 3", st.SessionsStarted, st.StatsQueries)
		}
		waitRest(t, srv)
		if n := d.openConns(); n != 1 {
			t.Errorf("%d connections open to the daemon, want the one kept", n)
		}
	})
}

// TestKeptConnProbeRedialsOnce: the daemon lets the kept connection go —
// the watchdog closes it idle, a drain closes it, or the daemon restarts.
// The next probe finds it dead before its reply and dials once more, which
// counts no probe failure and no markdown.
func TestKeptConnProbeRedialsOnce(t *testing.T) {
	const deadline = 50 * time.Millisecond
	eachTransport(t, func(t *testing.T, tcp bool) {
		for _, fault := range []struct {
			name  string
			opts  []rcuda.ServerOption
			apply func(*testing.T, *keptDaemon)
		}{
			{"watchdog", []rcuda.ServerOption{rcuda.WithRequestDeadline(deadline)}, func(*testing.T, *keptDaemon) {
				time.Sleep(4 * deadline)
			}},
			{"drain", nil, func(t *testing.T, d *keptDaemon) {
				if err := d.server().Drain(context.Background()); err != nil {
					t.Errorf("drain: %v", err)
				}
				d.restart()
			}},
			{"restart", nil, func(_ *testing.T, d *keptDaemon) { d.restart() }},
		} {
			t.Run(fault.name, func(t *testing.T) {
				d := newKeptDaemon(t, tcp, fault.opts...)
				pool, err := New([]Endpoint{d.endpoint("a")})
				if err != nil {
					t.Fatal(err)
				}
				defer pool.Close()
				pool.Refresh()
				waitRest(t, d.server())
				fault.apply(t, d)
				pool.Refresh()
				wantProbes(t, pool, 2)
				if n := d.dials.Load(); n != 2 {
					t.Errorf("%d dials, want one more once the kept connection was let go", n)
				}
				if st := d.server().Stats(); st.WatchdogKills != 0 {
					t.Errorf("daemon counted %d watchdog kills, want 0", st.WatchdogKills)
				}
			})
		}
	})
}

// TestKeptConnProbeRacesOpen: probes and sessions on one endpoint at once
// (run it under -race). Each takes the kept connection when it is free and
// dials when it is not, and what is left is one idle connection.
func TestKeptConnProbeRacesOpen(t *testing.T) {
	const rounds = 50
	eachTransport(t, func(t *testing.T, tcp bool) {
		d := newKeptDaemon(t, tcp)
		pool, err := New([]Endpoint{d.endpoint("a")})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		img := moduleImage(t, calib.MM)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				pool.Refresh()
			}
		}()
		for range rounds {
			sess, err := pool.Open(img, JobSpec{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		wantProbes(t, pool, rounds)
		wantPoolStats(t, pool, rounds, 0)
		waitRest(t, d.server())
		if n := d.openConns(); n != 1 {
			t.Errorf("%d connections open to the daemon after %d dials, want the one kept", n, d.dials.Load())
		}
	})
}

// TestKeptConnSimulateLiveIsDeterministic: the live-vs-predicted experiment
// opens its jobs on kept connections and waits for each released session,
// not for a handler to exit; two runs agree on every field of the result.
func TestKeptConnSimulateLiveIsDeterministic(t *testing.T) {
	a, err := SimulateLive(netsim.GigaE(), 2, ExperimentJobs())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateLive(netsim.GigaE(), 2, ExperimentJobs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs differ:\n%+v\n%+v", a, b)
	}
}

// lateDaemon serves a server over loopback TCP or over simulated pipes,
// with the daemon's end of the first connection dialed through a
// transport.FaultyConn on plan, and returns its endpoint; dials counts the
// endpoint's dials.
func lateDaemon(t *testing.T, tcp bool, plan *faults.Plan, dials *atomic.Int64) Endpoint {
	t.Helper()
	clk := vclock.NewSim()
	srv := rcuda.NewServer(gpu.New(gpu.Config{Clock: clk}))
	var wg sync.WaitGroup
	serve := func(conn transport.Conn) {
		if dials.Load() == 1 {
			conn = transport.NewFaultyConn(conn, plan)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.ServeConn(conn)
			_ = conn.Close()
		}()
	}
	dial := func() (transport.Conn, error) {
		dials.Add(1)
		cli, end := transport.Pipe(netsim.IB40G(), clk, nil)
		serve(end)
		return cli, nil
	}
	var ln net.Listener
	if tcp {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		accepted := make(chan transport.Conn)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				accepted <- transport.NewTCPConn(c)
			}
		}()
		dial = func() (transport.Conn, error) {
			dials.Add(1)
			conn, err := transport.DialTCP(ln.Addr().String())
			if err == nil {
				serve(<-accepted)
			}
			return conn, err
		}
	}
	t.Cleanup(func() {
		if ln != nil {
			_ = ln.Close()
		}
		_ = srv.Close()
		wg.Wait()
	})
	return Endpoint{Name: "late", Dial: dial}
}

// TestKeptConnProbeAfterBudgetedSession: a session with a retry budget
// leaves its connection to the pool with no operation timeout set. The
// probe that follows on it, whose reply the daemon sends later than that
// budget, succeeds there without a redial or a probe failure.
func TestKeptConnProbeAfterBudgetedSession(t *testing.T) {
	const budget, delay = 50 * time.Millisecond, 200 * time.Millisecond
	eachTransport(t, func(t *testing.T, tcp bool) {
		// The daemon's ops on the connection: the session's init, hello,
		// malloc and free, each received and answered, its finalize and
		// the probe received; op 10 is the probe's reply.
		plan := faults.Script(faults.Injection{Op: 10, Dir: faults.DirSend,
			Decision: faults.Decision{Kind: faults.KindLatency, Delay: delay}})
		var dials atomic.Int64
		pool, err := New([]Endpoint{lateDaemon(t, tcp, plan, &dials)}, withClientOptions(rcuda.WithRetry(budget)))
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		cycle(t, pool, moduleImage(t, calib.MM))
		start := time.Now()
		pool.Refresh()
		took := time.Since(start)
		if plan.Injected() != 1 || took < delay {
			t.Fatalf("%d latency injections, probe took %v; want the reply %v late", plan.Injected(), took, delay)
		}
		wantProbes(t, pool, 1)
		if n := dials.Load(); n != 1 {
			t.Errorf("a session and a probe made %d dials, want the probe on the kept connection", n)
		}
	})
}
