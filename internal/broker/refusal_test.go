package broker

import (
	"net"
	"testing"

	"rcuda/internal/calib"
	"rcuda/internal/gpu"
	"rcuda/internal/rcuda"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// tcpDaemon serves a fresh device on a loopback listener until the test
// ends and returns the endpoint that dials it.
func tcpDaemon(t *testing.T, name string, opts ...rcuda.ServerOption) Endpoint {
	t.Helper()
	srv := rcuda.NewServer(gpu.New(gpu.Config{Clock: vclock.NewWall()}), opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
		if err := <-done; err != nil {
			t.Errorf("%s: serve: %v", name, err)
		}
	})
	addr := ln.Addr().String()
	return Endpoint{Name: name, Dial: func() (transport.Conn, error) { return transport.DialTCP(addr) }}
}

// TestTypedRefusalSpillsOverTCP: every open a pool makes is durable, so its
// hello is in flight when a full daemon refuses the init. Over real
// loopback TCP that refusal still arrives as ErrServerBusy: a pool spills
// its open off the full daemon onto the free one and does not mark the
// full one down. A pool knows a daemon is full once it has spilled off it,
// so each round opens through a fresh pool.
func TestTypedRefusalSpillsOverTCP(t *testing.T) {
	full := tcpDaemon(t, "full", rcuda.WithMaxSessions(1))
	free := tcpDaemon(t, "free")
	img := moduleImage(t, calib.MM)
	// Fill the full daemon from outside the pools, whose gauges then say
	// nothing of it.
	hogConn, err := full.Dial()
	if err != nil {
		t.Fatal(err)
	}
	hog, err := rcuda.Open(hogConn, img)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	for i := range 50 {
		p, err := New([]Endpoint{full, free})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := p.Open(img, JobSpec{CS: calib.MM})
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if sess.Endpoint != "free" {
			t.Fatalf("round %d placed on %q, want %q", i, sess.Endpoint, "free")
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		s := p.Stats()
		if s.Spills != 1 || s.Placements != 1 || s.Markdowns != 0 || s.Failovers != 0 {
			t.Fatalf("round %d: stats %+v, want one spill and one placement, no markdown or failover", i, s)
		}
		if st := p.Endpoints(); !st[0].Up {
			t.Fatalf("round %d: the full daemon was marked down: %+v", i, st[0])
		}
		_ = p.Close()
	}
}
