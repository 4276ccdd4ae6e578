package rcuda

import (
	"context"
	"sync"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/gpu"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// probeStats opens a probe-only connection to srv over a fresh pipe, runs
// one query, and closes.
func probeStats(t *testing.T, srv *Server, clk vclock.Clock) *protocol.StatsReply {
	t.Helper()
	cliEnd, srvEnd := transport.Pipe(netsim.IB40G(), clk, nil)
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(srvEnd) }()
	if err := cliEnd.Send(&protocol.StatsQueryRequest{}); err != nil {
		t.Fatal(err)
	}
	payload, err := cliEnd.Recv()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := protocol.DecodeStatsReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	_ = cliEnd.Close()
	if err := <-done; err != nil {
		t.Fatalf("stats conn: %v", err)
	}
	return reply
}

// TestStatsProbeReportsLiveLoad drives a session through allocations and a
// kernel and checks a probe connection sees the load: attached session,
// per-device context counts, memory in use, and accumulated busy time.
func TestStatsProbeReportsLiveLoad(t *testing.T) {
	clk := vclock.NewSim()
	devs := []*gpu.Device{
		gpu.New(gpu.Config{Clock: clk}),
		gpu.New(gpu.Config{Clock: clk}),
	}
	srv := NewServer(devs[0], WithDevices(devs[1]))

	empty := probeStats(t, srv, clk)
	if empty.SessionsLive != 0 || len(empty.Devices) != 2 {
		t.Fatalf("idle reply = %+v", empty)
	}
	for i, d := range empty.Devices {
		if d.BytesInUse != 0 || d.Sessions != 0 || d.BusyNanos != 0 {
			t.Fatalf("idle device %d = %+v", i, d)
		}
	}

	client, cleanup := openOn(t, NewSimDaemon(srv, netsim.IB40G(), clk, nil), moduleImage(t, calib.MM))
	if _, err := client.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := client.SetDevice(1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Malloc(1 << 10); err != nil {
		t.Fatal(err)
	}

	loaded := probeStats(t, srv, clk)
	if loaded.SessionsLive != 1 {
		t.Fatalf("SessionsLive = %d, want 1", loaded.SessionsLive)
	}
	if loaded.Devices[0].Sessions != 1 || loaded.Devices[1].Sessions != 1 {
		t.Fatalf("device sessions = %d,%d, want 1,1",
			loaded.Devices[0].Sessions, loaded.Devices[1].Sessions)
	}
	if loaded.Devices[0].BytesInUse < 1<<20 || loaded.Devices[1].BytesInUse < 1<<10 {
		t.Fatalf("bytes in use = %d,%d", loaded.Devices[0].BytesInUse, loaded.Devices[1].BytesInUse)
	}
	if loaded.Devices[0].BusyNanos == 0 {
		t.Fatal("device 0 served a malloc but reports zero busy time")
	}

	// The in-session query sees the same numbers through the client API.
	inSession, err := client.QueryStats()
	if err != nil {
		t.Fatal(err)
	}
	if inSession.SessionsLive != 1 || inSession.Devices[0].BytesInUse != loaded.Devices[0].BytesInUse {
		t.Fatalf("in-session reply %+v disagrees with probe %+v", inSession, loaded)
	}

	cleanup()

	drained := probeStats(t, srv, clk)
	if drained.SessionsLive != 0 || drained.Devices[0].Sessions != 0 || drained.Devices[1].Sessions != 0 {
		t.Fatalf("post-close reply = %+v, want all session gauges zero", drained)
	}
	if drained.Devices[0].BytesInUse != 0 {
		t.Fatalf("post-close bytes in use = %d", drained.Devices[0].BytesInUse)
	}
	if srv.Stats().StatsQueries < 3 {
		t.Fatalf("StatsQueries = %d, want >= 3", srv.Stats().StatsQueries)
	}
	_ = srv.Close()
}

// TestStatsProbePersistentConnection keeps one probe connection open across
// several queries, the way the broker's prober does.
func TestStatsProbePersistentConnection(t *testing.T) {
	clk := vclock.NewSim()
	srv := NewServer(gpu.New(gpu.Config{Clock: clk}))
	d := NewSimDaemon(srv, netsim.IB40G(), clk, nil)
	conn, _ := d.Dial()
	for i := 0; i < 5; i++ {
		if err := conn.Send(&protocol.StatsQueryRequest{}); err != nil {
			t.Fatal(err)
		}
		payload, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := protocol.DecodeStatsReply(payload); err != nil {
			t.Fatal(err)
		}
	}
	_ = conn.Close()
	if err := d.Wait(); err != nil {
		t.Fatalf("stats conn: %v", err)
	}
	if got := srv.Stats().StatsQueries; got != 5 {
		t.Fatalf("StatsQueries = %d, want 5", got)
	}
	_ = srv.Close()
}

// TestSessionsLiveCountsSessionsNotConnections holds a probe connection open
// beside one attached session: the snapshot an operator reads and the
// reply the probe carries both count the one session, not the two
// connections. The probe's connection is served only while it is answered;
// then it rests, and SessionsActive counts the session's connection alone.
func TestSessionsLiveCountsSessionsNotConnections(t *testing.T) {
	clk := vclock.NewSim()
	srv := NewServer(gpu.New(gpu.Config{Clock: clk}))
	d := NewSimDaemon(srv, netsim.IB40G(), clk, nil)
	client, err := d.Open(moduleImage(t, calib.MM))
	if err != nil {
		t.Fatal(err)
	}
	probe, _ := d.Dial()
	if err := probe.Send(&protocol.StatsQueryRequest{}); err != nil {
		t.Fatal(err)
	}
	payload, err := probe.Recv()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := protocol.DecodeStatsReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the probe's connection to rest", 5*time.Second, func() bool { return srv.Stats().SessionsActive == 1 })
	if snap := srv.StatsSnapshot(); snap.SessionsLive != 1 || reply.SessionsLive != 1 {
		t.Errorf("SessionsLive: snapshot %d, probe reply %d, want 1 and 1", snap.SessionsLive, reply.SessionsLive)
	}
	_ = probe.Close()
	_ = client.Close()
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
}

// liveAtReply is a server end that reads its server's live-session gauge
// as the first reply, the handshake's, leaves.
type liveAtReply struct {
	transport.Conn
	srv  *Server
	sent bool
	live int64
}

func (c *liveAtReply) Send(m protocol.Message) error {
	if !c.sent {
		c.sent = true
		c.live = c.srv.StatsSnapshot().SessionsLive
	}
	return c.Conn.Send(m)
}

// TestSessionsLiveCountsASessionBeforeItsReply: a client whose Open has
// returned must find its session in the gauge the least-loaded ranking
// reads, so the server counts it before the init reply leaves.
func TestSessionsLiveCountsASessionBeforeItsReply(t *testing.T) {
	clk := vclock.NewSim()
	srv := NewServer(gpu.New(gpu.Config{Clock: clk}))
	cliEnd, srvEnd := transport.Pipe(netsim.IB40G(), clk, nil)
	end := &liveAtReply{Conn: srvEnd, srv: srv}
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(end) }()
	client, err := Open(cliEnd, moduleImage(t, calib.MM))
	if err != nil {
		t.Fatal(err)
	}
	if end.live != 1 {
		t.Errorf("SessionsLive = %d as the init reply left, want 1", end.live)
	}
	_ = client.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
}

// TestStatsProbeServedPastConnCap checks monitoring keeps working on a
// server whose connection cap is exhausted: the probe is answered where a
// session handshake would be refused busy. The probe's connection then
// rests and gives its slot back, so once the session ends, sessions on
// that connection and on a new one are each admitted under the cap.
func TestStatsProbeServedPastConnCap(t *testing.T) {
	clk := vclock.NewSim()
	srv := NewServer(gpu.New(gpu.Config{Clock: clk}), WithMaxConns(1))
	d := NewSimDaemon(srv, netsim.IB40G(), clk, nil)
	img := moduleImage(t, calib.MM)

	// Occupy the single conn slot with a real session.
	_, cleanup := openOn(t, d, img)
	reply := probeStats(t, srv, clk)
	if reply.SessionsLive != 1 {
		t.Fatalf("over-cap probe: SessionsLive = %d, want 1", reply.SessionsLive)
	}
	probe, _ := d.Dial()
	if err := probe.Send(&protocol.StatsQueryRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := protocol.DecodeStatsReply(recvOn(t, probe)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the probe's connection to rest", 5*time.Second, func() bool { return srv.Stats().SessionsActive == 1 })
	cleanup()
	// Only the resting probe connection is left, and it holds no slot.
	slotsFree := func() bool { return srv.guard.conns.Load() == 0 }
	waitFor(t, "the connection slots to balance", 5*time.Second, slotsFree)
	onProbe, err := Open(probe, img)
	if err != nil {
		t.Fatalf("a session on the rested probe connection: %v", err)
	}
	if err := onProbe.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the connection slots to balance", 5*time.Second, slotsFree)
	_, cleanup = openOn(t, d, img)
	cleanup()
	if n := srv.Stats().RejectedConns; n != 0 {
		t.Errorf("%d connections refused, want 0", n)
	}
	_ = srv.Close()
}

// TestStatsSnapshotRacesDrain hammers StatsSnapshot and wire probes while
// sessions churn and the server drains: no deadlock, and no gauge may ever
// go negative or wrap. Run under -race (make verify includes this package).
func TestStatsSnapshotRacesDrain(t *testing.T) {
	clk := vclock.NewWall()
	devs := []*gpu.Device{
		gpu.New(gpu.Config{Clock: clk}),
		gpu.New(gpu.Config{Clock: clk}),
	}
	srv := NewServer(devs[0], WithDevices(devs[1]), WithSessionSpread())
	img := moduleImage(t, calib.MM)

	const clients = 6
	// The daemon closes each server end when its handler returns, so a
	// client mid-handshake unblocks even when ServeConn refused the
	// connection outright.
	daemon := NewSimDaemon(srv, netsim.IB40G(), clk, nil)
	var sessions sync.WaitGroup
	for i := 0; i < clients; i++ {
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			client, err := daemon.Open(img)
			if err != nil {
				return // the drain may refuse late openers; that's the point
			}
			for j := 0; j < 50; j++ {
				ptr, err := client.Malloc(4 << 10)
				if err != nil {
					break
				}
				if err := client.Free(ptr); err != nil {
					break
				}
			}
			_ = client.Close()
		}()
	}

	checkReply := func(r *protocol.StatsReply) {
		if r.SessionsLive > clients {
			t.Errorf("SessionsLive = %d, beyond the %d clients (negative gauge wrapped?)", r.SessionsLive, clients)
		}
		for i, d := range r.Devices {
			if d.Sessions > clients {
				t.Errorf("device %d sessions = %d, beyond the %d clients", i, d.Sessions, clients)
			}
		}
	}
	stop := make(chan struct{})
	var observers sync.WaitGroup
	observers.Add(1)
	go func() {
		defer observers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := srv.StatsSnapshot()
			if snap.SessionsParkedNow < 0 {
				t.Errorf("SessionsParkedNow = %d", snap.SessionsParkedNow)
			}
			for i, du := range snap.Devices {
				if du.Sessions < 0 || du.Busy < 0 {
					t.Errorf("device %d gauges went negative: %+v", i, du)
				}
			}
			checkReply(srv.statsReply())
		}
	}()

	// Let the churn overlap the drain, then shut down with a bounded grace.
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := srv.Drain(ctx); err != nil && ctx.Err() == nil {
		t.Errorf("drain: %v", err)
	}
	cancel()
	sessions.Wait()
	_ = daemon.Wait() // the drain refuses late openers; that's the point
	close(stop)
	observers.Wait()

	final := srv.statsReply()
	if final.SessionsLive != 0 {
		t.Fatalf("post-drain SessionsLive = %d", final.SessionsLive)
	}
	for i, d := range final.Devices {
		if d.Sessions != 0 {
			t.Fatalf("post-drain device %d sessions = %d", i, d.Sessions)
		}
	}
}
