package broker

import (
	"errors"
	"sync"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/rcuda"
	"rcuda/internal/sched"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// moduleImage returns the wire image of a case study's GPU module.
func moduleImage(t *testing.T, cs calib.CaseStudy) []byte {
	t.Helper()
	mod, err := kernels.ModuleFor(cs)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Binary()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// simServer is an in-process rcudad on its own Sim clock.
type simServer struct {
	srv *rcuda.Server
	clk *vclock.Sim
	mu  sync.Mutex
	// dead makes Dial refuse, emulating an unreachable server.
	dead bool
}

func newSimServer(opts ...rcuda.ServerOption) *simServer {
	clk := vclock.NewSim()
	return &simServer{
		srv: rcuda.NewServer(gpu.New(gpu.Config{Clock: clk}), opts...),
		clk: clk,
	}
}

func (s *simServer) endpoint(name string, link *netsim.Link) Endpoint {
	dial := func() (transport.Conn, error) {
		// A revived server replaces srv and clk behind the same endpoint.
		s.mu.Lock()
		dead, srv, clk := s.dead, s.srv, s.clk
		s.mu.Unlock()
		if dead {
			return nil, errors.New("connection refused")
		}
		return rcuda.NewSimDaemon(srv, link, clk, nil).Dial()
	}
	return Endpoint{Name: name, Dial: dial, Link: link}
}

func (s *simServer) setDead(dead bool) {
	s.mu.Lock()
	s.dead = dead
	s.mu.Unlock()
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{LeastLoaded, RoundRobin, NetworkAware, ClassAware} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("best-effort"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown name")
	}
}

func TestPoolRoundRobinCycles(t *testing.T) {
	link := netsim.IB40G()
	ss := []*simServer{newSimServer(), newSimServer(), newSimServer()}
	eps := make([]Endpoint, len(ss))
	for i, s := range ss {
		eps[i] = s.endpoint("", link)
	}
	p, err := New(eps, WithPolicy(RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	img := moduleImage(t, calib.MM)
	var got []int
	for i := 0; i < 6; i++ {
		sess, err := p.Open(img, JobSpec{})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, sess.idx)
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin placements = %v, want %v", got, want)
		}
	}
	if s := p.Stats(); s.Placements != 6 || s.Spills != 0 || s.Failovers != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestPoolClassAwareFollowsClassBlocks drives the class-aware policy end
// to end: two scheduler-enabled daemons, one crowded with realtime
// tenants, and after a probe round a new realtime job lands on the calm
// one — with its class declared in the hello, so the destination daemon's
// realtime gauge counts it.
func TestPoolClassAwareFollowsClassBlocks(t *testing.T) {
	link := netsim.IB40G()
	crowded := newSimServer(rcuda.WithScheduler(sched.WFQ))
	calm := newSimServer(rcuda.WithScheduler(sched.WFQ))
	p, err := New([]Endpoint{
		crowded.endpoint("crowded", link),
		calm.endpoint("calm", link),
	}, WithPolicy(ClassAware))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	img := moduleImage(t, calib.MM)

	// Two realtime tenants occupy the first server, dialed directly so the
	// pool's stampede guard cannot spread them.
	crowdedEp := crowded.endpoint("crowded", link)
	for i := 0; i < 2; i++ {
		conn, err := crowdedEp.Dial()
		if err != nil {
			t.Fatal(err)
		}
		hog, err := rcuda.Open(conn, img, rcuda.WithSchedClass(rcuda.SchedRealtime, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer hog.Close()
	}
	if got := crowded.srv.StatsSnapshot().Classes[sched.Realtime].Sessions; got != 2 {
		t.Fatalf("crowded daemon counts %d realtime sessions, want 2", got)
	}

	p.Refresh()
	sess, err := p.Open(img, JobSpec{Class: rcuda.SchedRealtime, Weight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Endpoint != "calm" {
		t.Fatalf("realtime job placed on %q, want the calm daemon", sess.Endpoint)
	}
	if got := calm.srv.StatsSnapshot().Classes[sched.Realtime].Sessions; got != 1 {
		t.Fatalf("calm daemon counts %d realtime sessions, want 1", got)
	}
}

// TestPoolLeastLoadedFollowsProbes loads one server with a live session and
// checks that after a probe round the pool avoids it.
func TestPoolLeastLoadedFollowsProbes(t *testing.T) {
	link := netsim.IB40G()
	busy, idle := newSimServer(), newSimServer()
	p, err := New([]Endpoint{
		busy.endpoint("busy", link),
		idle.endpoint("idle", link),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	img := moduleImage(t, calib.MM)

	// Occupy the first server so its SessionsLive gauge reads 1.
	hog, err := p.Open(img, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if hog.Endpoint != "busy" {
		t.Fatalf("first placement on %q, want the first endpoint", hog.Endpoint)
	}
	p.Refresh()
	st := p.Endpoints()
	if !st[0].Probed || st[0].SessionsLive != 1 || st[1].SessionsLive != 0 {
		t.Fatalf("endpoint status after probe = %+v", st)
	}

	sess, err := p.Open(img, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Endpoint != "idle" {
		t.Fatalf("least-loaded placed on %q, want %q", sess.Endpoint, "idle")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hog.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolPlacedSinceProbeGuardsStampede opens two sessions between probe
// rounds: the second must not pile onto the same endpoint just because the
// gauges are stale.
func TestPoolPlacedSinceProbeGuardsStampede(t *testing.T) {
	link := netsim.IB40G()
	a, b := newSimServer(), newSimServer()
	p, err := New([]Endpoint{a.endpoint("a", link), b.endpoint("b", link)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Refresh()
	img := moduleImage(t, calib.MM)
	s1, err := p.Open(img, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Open(img, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Endpoint == s2.Endpoint {
		t.Fatalf("both sessions landed on %q with stale gauges", s1.Endpoint)
	}
	_ = s1.Close()
	_ = s2.Close()
}

// TestPoolSpillOnBusy fills a server's connection cap and checks the next
// placement spills to the other endpoint with the spill counted.
func TestPoolSpillOnBusy(t *testing.T) {
	link := netsim.IB40G()
	capped := newSimServer(rcuda.WithMaxConns(1))
	spare := newSimServer()
	cappedEp := capped.endpoint("capped", link)
	p, err := New([]Endpoint{
		cappedEp,
		spare.endpoint("spare", link),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	img := moduleImage(t, calib.MM)

	// Occupy the capped server from outside the pool, so the pool's own
	// gauges don't know — the way a second broker or a direct client would.
	hogConn, err := cappedEp.Dial()
	if err != nil {
		t.Fatal(err)
	}
	hog, err := rcuda.Open(hogConn, img)
	if err != nil {
		t.Fatal(err)
	}
	// The pool's gauges are all zero, so the policy prefers the capped
	// server — and must spill off its admission refusal.
	sess, err := p.Open(img, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Endpoint != "spare" {
		t.Fatalf("spilled session on %q, want %q", sess.Endpoint, "spare")
	}
	s := p.Stats()
	if s.Spills != 1 || s.Placements != 1 {
		t.Fatalf("stats = %+v, want 1 spill and 1 placement", s)
	}
	// The spill was an admission refusal, not a failure: the endpoint
	// stays up.
	if st := p.Endpoints(); !st[0].Up {
		t.Fatalf("capped endpoint marked down by a spill: %+v", st[0])
	}
	_ = sess.Close()
	_ = hog.Close()
}

// TestPoolNetworkAware ranks endpoints by transfer-time estimates over
// their declared links.
func TestPoolNetworkAware(t *testing.T) {
	slow, fast := newSimServer(), newSimServer()
	p, err := New([]Endpoint{
		slow.endpoint("gige", netsim.GigaE()),
		fast.endpoint("ib", netsim.IB40G()),
	}, WithPolicy(NetworkAware))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	img := moduleImage(t, calib.MM)

	// A calibrated case study ranks by the perfmodel estimate.
	sess, err := p.Open(img, JobSpec{CS: calib.MM, Size: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Endpoint != "ib" {
		t.Fatalf("MM job placed on %q, want the InfiniBand endpoint", sess.Endpoint)
	}
	_ = sess.Close()

	// A raw byte volume falls back to link payload time.
	sess, err = p.Open(img, JobSpec{TransferBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Endpoint != "ib" {
		t.Fatalf("bulk job placed on %q, want the InfiniBand endpoint", sess.Endpoint)
	}
	_ = sess.Close()

	// No declared volume: falls back to load ranking, first endpoint wins
	// the tie.
	sess, err = p.Open(img, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Endpoint != "gige" {
		t.Fatalf("unknown job placed on %q, want the first endpoint", sess.Endpoint)
	}
	_ = sess.Close()
}

// TestPoolProbeFlap kills and revives a server and checks the mark-down,
// mark-up, and flap accounting.
func TestPoolProbeFlap(t *testing.T) {
	link := netsim.IB40G()
	flappy := newSimServer(rcuda.WithCloseGrace(50 * time.Millisecond))
	steady := newSimServer()
	p, err := New([]Endpoint{
		flappy.endpoint("flappy", link),
		steady.endpoint("steady", link),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	img := moduleImage(t, calib.MM)

	p.Refresh()
	if s := p.Stats(); s.Probes != 2 || s.ProbeFailures != 0 {
		t.Fatalf("after healthy round: %+v", s)
	}

	flappy.setDead(true)
	// The persistent probe conn is still alive even though Dial refuses;
	// kill the server itself so the probe exchange fails too.
	_ = flappy.srv.Close()
	p.Refresh()
	st := p.Endpoints()
	if st[0].Up || !st[1].Up {
		t.Fatalf("after flap down: %+v", st)
	}
	if s := p.Stats(); s.Markdowns != 1 || s.ProbeFailures == 0 {
		t.Fatalf("after flap down: %+v", s)
	}

	// Placements keep working by avoiding the dead endpoint.
	sess, err := p.Open(img, JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Endpoint != "steady" {
		t.Fatalf("placement on %q while flappy is down", sess.Endpoint)
	}
	_ = sess.Close()

	// Revive: a fresh server behind the same endpoint marks back up.
	revived := newSimServer()
	flappy.mu.Lock()
	flappy.srv, flappy.clk, flappy.dead = revived.srv, revived.clk, false
	flappy.mu.Unlock()
	p.Refresh()
	if st := p.Endpoints(); !st[0].Up {
		t.Fatalf("after revival: %+v", st[0])
	}
	if s := p.Stats(); s.Markups != 1 {
		t.Fatalf("after revival: %+v", s)
	}
}

// TestPoolOpenAllDown reports ErrNoServers when every endpoint refuses.
func TestPoolOpenAllDown(t *testing.T) {
	link := netsim.IB40G()
	a, b := newSimServer(), newSimServer()
	a.setDead(true)
	b.setDead(true)
	p, err := New([]Endpoint{a.endpoint("a", link), b.endpoint("b", link)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Open(moduleImage(t, calib.MM), JobSpec{}); !errors.Is(err, ErrNoServers) {
		t.Fatalf("Open with all endpoints dead = %v, want ErrNoServers", err)
	}
	if st := p.Endpoints(); st[0].Up || st[1].Up {
		t.Fatalf("dead endpoints still marked up: %+v", st)
	}
}
