package rcuda

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// keptDaemon is a one-device server on a SimDaemon.
func keptDaemon() (*SimDaemon, *Server, *gpu.Device) {
	clk := vclock.NewSim()
	dev := gpu.New(gpu.Config{Clock: clk})
	srv := NewServer(dev)
	return NewSimDaemon(srv, netsim.IB40G(), clk, nil), srv, dev
}

// release ends c with Release and returns its connection, failing unless
// the connection came back.
func release(t *testing.T, c *Client) transport.Conn {
	t.Helper()
	conn, err := c.Release()
	if err != nil {
		t.Fatal(err)
	}
	if conn == nil {
		t.Fatal("Release of a healthy session handed back no connection")
	}
	return conn
}

// TestKeptConnSessionsAreIsolated: sessions one after another on one kept
// connection share nothing. A device pointer of the first is not the
// second's, each durable session gets an id of its own, and every finalize
// leaves the device holding nothing.
func TestKeptConnSessionsAreIsolated(t *testing.T) {
	d, srv, dev := keptDaemon()
	defer srv.Close()
	img := moduleImage(t, calib.MM)
	conn, _ := d.Dial()
	ids := map[uint64]bool{}
	var first cudart.DevicePtr
	for i := 0; i < 3; i++ {
		c, err := Open(conn, img, WithReconnect(d.Dial))
		if err != nil {
			t.Fatalf("session %d on the kept connection: %v", i, err)
		}
		if ids[c.SessionID()] {
			t.Fatalf("session %d got durable id %d again", i, c.SessionID())
		}
		ids[c.SessionID()] = true
		if i == 0 {
			if first, err = c.Malloc(4096); err != nil {
				t.Fatal(err)
			}
		} else if err := c.MemcpyToDevice(first, make([]byte, 16)); !errors.Is(err, cudart.ErrorInvalidDevicePointer) {
			t.Fatalf("session %d writing session 0's pointer: %v, want cudaErrorInvalidDevicePointer", i, err)
		}
		conn = release(t, c)
		if err := d.Wait(); err != nil {
			t.Fatalf("after session %d: %v", i, err)
		}
		if n := dev.MemoryInUse(); n != 0 {
			t.Fatalf("after session %d finalized the device holds %d bytes", i, n)
		}
	}
	if st := srv.Stats(); st.SessionsStarted != 3 || st.SessionsActive != 0 {
		t.Errorf("three sessions on one resting connection counted %d started, %d active; want 3 and 0",
			st.SessionsStarted, st.SessionsActive)
	}
	_ = conn.Close()
}

// TestKeptConnTakesAnyOpeningFrame: after a finalize, a connection takes
// what a fresh one takes as its first frame — a reattach, a stats query, a
// migration's restore hello — not only an init.
func TestKeptConnTakesAnyOpeningFrame(t *testing.T) {
	d, srv, dev := keptDaemon()
	defer srv.Close()
	img := moduleImage(t, calib.MM)
	// kept opens and releases a session, handing back its connection.
	kept := func() transport.Conn {
		c, err := d.Open(img)
		if err != nil {
			t.Fatal(err)
		}
		return release(t, c)
	}

	// A durable session whose connection dies parks, holding its block.
	parkedConn, _ := d.Dial()
	parked, err := Open(parkedConn, img, WithReconnect(d.Dial))
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := parked.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	_ = parkedConn.Close()
	waitFor(t, "the session to park", reattachWait, func() bool { return srv.Stats().SessionsParked == 1 })

	t.Run("reattach", func(t *testing.T) {
		conn := kept()
		defer conn.Close()
		if err := conn.Send(&protocol.ReattachRequest{Session: parked.SessionID()}); err != nil {
			t.Fatal(err)
		}
		reply := recvOn(t, conn)
		if r, err := protocol.DecodeReattachResponse(reply); err != nil || r.Err != 0 {
			t.Fatalf("reattach on a kept connection: %+v, %v", r, err)
		}
		// The spliced session is the parked one: its block frees.
		if err := conn.Send(&protocol.FreeRequest{DevPtr: uint32(ptr)}); err != nil {
			t.Fatal(err)
		}
		if code, err := protocol.DecodeCodeResponse(recvOn(t, conn)); err != nil || code != 0 {
			t.Fatalf("freeing the reattached session's block: code %d, %v", code, err)
		}
		if err := conn.Send(&protocol.FinalizeRequest{}); err != nil {
			t.Fatal(err)
		}
		if err := d.Wait(); err != nil {
			t.Fatal(err)
		}
		if n := dev.MemoryInUse(); n != 0 {
			t.Fatalf("device holds %d bytes after the reattached session finalized", n)
		}
	})
	t.Run("stats", func(t *testing.T) {
		conn := kept()
		defer conn.Close()
		if err := conn.Send(&protocol.StatsQueryRequest{}); err != nil {
			t.Fatal(err)
		}
		if _, err := protocol.DecodeStatsReply(recvOn(t, conn)); err != nil {
			t.Fatalf("stats query on a kept connection: %v", err)
		}
	})
	t.Run("restore", func(t *testing.T) {
		conn := kept()
		defer conn.Close()
		if err := conn.Send(&protocol.SessionRestoreRequest{Session: 1 << 40}); err != nil {
			t.Fatal(err)
		}
		if code, err := protocol.DecodeCodeResponse(recvOn(t, conn)); err != nil || code != 0 {
			t.Fatalf("restore hello on a kept connection: code %d, %v; want accepted", code, err)
		}
	})
}

// TestKeptConnHoldsNoConnSlot: a connection resting between sessions gives
// back its WithMaxConns slot, and its next handshake takes one as a new
// connection's does, refused busy when none is free.
func TestKeptConnHoldsNoConnSlot(t *testing.T) {
	clk := vclock.NewSim()
	srv := NewServer(gpu.New(gpu.Config{Clock: clk}), WithMaxConns(1))
	defer srv.Close()
	d := NewSimDaemon(srv, netsim.IB40G(), clk, nil)
	img := moduleImage(t, calib.MM)
	c, err := d.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	rested := release(t, c)
	defer rested.Close()
	waitFor(t, "the connection to rest", time.Second, func() bool { return srv.Stats().SessionsActive == 0 })
	other, err := d.Open(img)
	if err != nil {
		t.Fatalf("a new connection beside a resting one under WithMaxConns(1): %v", err)
	}
	defer other.Close()
	if _, err := Open(rested, img); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("a session on the resting connection while the slot is taken: %v, want ErrServerBusy", err)
	}
}

// recvOn receives one frame, failing the test on an error.
func recvOn(t *testing.T, conn transport.Conn) []byte {
	t.Helper()
	payload, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestReleaseKeepsOnlyAHealthyConnection: Release hands back the
// connection only when the finalize left on it and no exchange failed on
// it; a CUDA error leaves it healthy, and Close after Release, or Release
// after Close, does nothing.
func TestReleaseKeepsOnlyAHealthyConnection(t *testing.T) {
	d, srv, _ := keptDaemon()
	defer srv.Close()
	img := moduleImage(t, calib.MM)

	c, err := d.Open(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Free(cudart.DevicePtr(12345)); !errors.Is(err, cudart.ErrorInvalidDevicePointer) {
		t.Fatalf("free of a bad pointer: %v", err)
	}
	conn := release(t, c)
	if again, err := c.Release(); again != nil || err != nil {
		t.Fatalf("second Release: %v, %v; want nothing", again, err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after Release: %v", err)
	}

	// A connection the server cut mid-session is not handed back.
	c, err = Open(conn, img)
	if err != nil {
		t.Fatal(err)
	}
	srvClosesConns(srv)
	if _, err := c.Malloc(64); err == nil {
		t.Fatal("malloc on a connection the server closed succeeded")
	}
	if conn, _ := c.Release(); conn != nil {
		t.Fatal("Release handed back a connection an exchange failed on")
	}
}

// TestReleaseKeepsNoConnectionOutOfStep: an exchange that timed out leaves
// its reply in flight, so Release does not hand back the connection even
// though the finalize leaves on it: the next session's init would read that
// reply as its own.
func TestReleaseKeepsNoConnectionOutOfStep(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const late = 50 * time.Millisecond
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		peer := transport.NewTCPConn(c)
		defer peer.Close()
		// The init is answered at once, the malloc after the client gave up.
		for _, reply := range []protocol.Message{&protocol.InitResponse{}, &protocol.MallocResponse{DevPtr: 64}} {
			if _, err := peer.Recv(); err != nil {
				served <- err
				return
			}
			if _, ok := reply.(*protocol.MallocResponse); ok {
				time.Sleep(late)
			}
			if err := peer.Send(reply); err != nil {
				served <- err
				return
			}
		}
		_, err = peer.Recv() // the finalize
		served <- err
	}()
	conn, err := transport.DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(conn, moduleImage(t, calib.MM))
	if err != nil {
		t.Fatal(err)
	}
	conn.SetOpTimeout(late / 5)
	if _, err := c.Malloc(64); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("malloc answered late: %v, want a deadline error", err)
	}
	conn.SetOpTimeout(0)
	kept, err := c.Release()
	if kept != nil || err != nil {
		t.Fatalf("Release handed back %v, %v; want no connection and no error", kept, err)
	}
	if err := <-served; err != nil {
		t.Fatalf("peer: %v", err)
	}
}

// srvClosesConns closes every connection srv is serving, from its side.
func srvClosesConns(srv *Server) {
	srv.mu.Lock()
	conns := make([]transport.Conn, 0, len(srv.conns))
	for c := range srv.conns {
		conns = append(conns, c)
	}
	srv.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}
