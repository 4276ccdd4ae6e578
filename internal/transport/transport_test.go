package transport

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/vclock"
)

func TestTCPRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		srv := NewTCPConn(c)
		defer srv.Close()
		payload, err := srv.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		req, err := protocol.DecodeRequest(payload)
		if err != nil {
			t.Error(err)
			return
		}
		m, ok := req.(*protocol.MallocRequest)
		if !ok || m.Size != 4096 {
			t.Errorf("server decoded %#v", req)
			return
		}
		if err := srv.Send(&protocol.MallocResponse{DevPtr: 0x100}); err != nil {
			t.Error(err)
		}
	}()

	cli, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Send(&protocol.MallocRequest{Size: 4096}); err != nil {
		t.Fatal(err)
	}
	payload, err := cli.Recv()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.DecodeMallocResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.DevPtr != 0x100 {
		t.Fatalf("devptr = %#x", resp.DevPtr)
	}
	wg.Wait()

	st := cli.Stats()
	if st.MessagesSent != 1 || st.MessagesRecv != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.BytesSent != 8 || st.BytesRecv != 8 {
		t.Fatalf("Table I byte accounting: %+v, want 8/8 for cudaMalloc", st)
	}
}

func TestDialTCPFailure(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Fatal("dialing a dead port must fail")
	}
}

func TestPipeChargesWireTime(t *testing.T) {
	clk := vclock.NewSim()
	link := netsim.IB40G()
	cli, srv := Pipe(link, clk, nil)
	defer cli.Close()

	req := &protocol.MallocRequest{Size: 64}
	if err := cli.Send(req); err != nil {
		t.Fatal(err)
	}
	want := link.WireTime(int64(req.WireSize()))
	if got := clk.Now(); got != want {
		t.Fatalf("send advanced clock by %v, want %v", got, want)
	}
	payload, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != 8 {
		t.Fatalf("payload %d bytes, want 8", len(payload))
	}
	// Recv itself costs nothing: the sender already paid the latency.
	if got := clk.Now(); got != want {
		t.Fatalf("recv advanced clock to %v, want %v", got, want)
	}
}

// TestPipeStampsDeparture pins SendStamper: the stamp is the clock reading
// right after the sender's own wire charge — the arrival instant the peer
// sees — it does not move when the peer charges the shared clock
// afterwards, and it is only reported for the pipe's own clock.
func TestPipeStampsDeparture(t *testing.T) {
	clk := vclock.NewSim()
	cli, srv := Pipe(netsim.IB40G(), clk, nil)
	defer cli.Close()

	if _, ok := srv.LastSendOn(clk); ok {
		t.Fatal("stamp reported before anything was sent")
	}
	if err := srv.Send(&protocol.MallocRequest{Size: 64}); err != nil {
		t.Fatal(err)
	}
	_, arrived, err := cli.RecvTimed()
	if err != nil {
		t.Fatal(err)
	}
	// The peer answers at once, charging the same clock.
	if err := cli.Send(&protocol.MallocRequest{Size: 64}); err != nil {
		t.Fatal(err)
	}
	at, ok := srv.LastSendOn(clk)
	if !ok || at != arrived || at >= clk.Now() {
		t.Fatalf("stamp %v (ok %v), want the arrival instant %v, before now %v", at, ok, arrived, clk.Now())
	}
	if _, ok := srv.LastSendOn(vclock.NewSim()); ok {
		t.Fatal("stamp reported on a clock that is not the pipe's")
	}
}

func TestPipeBulkPayloadTiming(t *testing.T) {
	clk := vclock.NewSim()
	link := netsim.GigaE()
	cli, srv := Pipe(link, clk, nil)
	defer cli.Close()

	data := bytes.Repeat([]byte{7}, 8<<20) // an FFT-sized 8 MiB copy
	req := &protocol.MemcpyToDeviceRequest{Dst: 0x100, Data: data}
	go func() {
		if err := cli.Send(req); err != nil {
			t.Error(err)
		}
	}()
	payload, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != req.WireSize() {
		t.Fatalf("payload %d, want %d", len(payload), req.WireSize())
	}
	got := clk.Now()
	want := link.WireTime(int64(req.WireSize()))
	if got != want {
		t.Fatalf("bulk send charged %v, want %v (includes TCP excess)", got, want)
	}
	// GigaE at 8 MiB must show the TCP-window excess over the pure
	// bandwidth model.
	if got <= link.PayloadTime(int64(req.WireSize())) {
		t.Fatal("GigaE bulk wire time should exceed the bandwidth-only model")
	}
}

func TestPipeRequestResponse(t *testing.T) {
	clk := vclock.NewSim()
	cli, srv := Pipe(netsim.TenGigE(), clk, netsim.NewNoise(1, 0.01))
	defer cli.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			payload, err := srv.Recv()
			if err != nil {
				return
			}
			req, err := protocol.DecodeRequest(payload)
			if err != nil {
				t.Error(err)
				return
			}
			switch r := req.(type) {
			case *protocol.FreeRequest:
				if err := srv.Send(&protocol.CodeResponse{}); err != nil {
					t.Error(err)
					return
				}
				_ = r
			case *protocol.FinalizeRequest:
				return
			}
		}
	}()

	for i := 0; i < 10; i++ {
		if err := cli.Send(&protocol.FreeRequest{DevPtr: 0x100}); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Send(&protocol.FinalizeRequest{}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if clk.Now() == 0 {
		t.Fatal("request/response traffic must advance the simulated clock")
	}
	st := cli.Stats()
	if st.MessagesSent != 11 || st.MessagesRecv != 10 {
		t.Fatalf("client stats %+v", st)
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	clk := vclock.NewSim()
	cli, srv := Pipe(netsim.AHT(), clk, nil)

	errc := make(chan error, 1)
	go func() {
		_, err := srv.Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Recv block
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Recv after close must fail")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	if err := cli.Send(&protocol.SyncRequest{}); err == nil {
		t.Fatal("Send after close must fail")
	}
	if err := srv.Close(); err != nil {
		t.Fatal("closing the other end must be fine")
	}
}

func TestPipeDrainsInFlightOnClose(t *testing.T) {
	clk := vclock.NewSim()
	cli, srv := Pipe(netsim.AHT(), clk, nil)
	if err := cli.Send(&protocol.SyncRequest{}); err != nil {
		t.Fatal(err)
	}
	_ = cli.Close()
	// The message was already on the wire; the peer may still read it.
	if _, err := srv.Recv(); err != nil {
		t.Fatalf("in-flight message lost on close: %v", err)
	}
	if _, err := srv.Recv(); err == nil {
		t.Fatal("second Recv after close must fail")
	}
}

// TestTCPMidFrameStallTimeout covers the nastier stall: the peer sends a
// frame header promising a payload and then goes silent, so the deadline
// must fire during the buffered body read, not just while waiting for the
// header.
func TestTCPMidFrameStallTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// A 4-byte header declaring a 4 KiB payload that never comes.
		if _, err := c.Write([]byte{0x00, 0x10, 0x00, 0x00}); err != nil {
			return
		}
		time.Sleep(2 * time.Second)
	}()

	cli, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetOpTimeout(50 * time.Millisecond)

	start := time.Now()
	_, err = cli.Recv()
	if err == nil {
		t.Fatal("Recv of a half-sent frame must time out")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("got %v, want a timeout error", err)
	}
	if elapsed := time.Since(start); elapsed > 1*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", elapsed)
	}
}

// TestTCPSendTimeout stalls the receive side until the kernel socket
// buffers fill, so a bulk vectored Send must surface the deadline instead
// of blocking forever.
func TestTCPSendTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c // never read from it
		}
	}()

	cli, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if tc, ok := cli.c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4 << 10) // keep the kernel's slack small
	}
	cli.SetOpTimeout(100 * time.Millisecond)

	// With nobody reading, repeated bulk sends must eventually block on a
	// full socket buffer and trip the write deadline.
	data := bytes.Repeat([]byte{3}, 4<<20)
	var sendErr error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if sendErr = cli.Send(&protocol.MemcpyToDeviceRequest{Dst: 0x100, Data: data}); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("Send never blocked against a stalled reader")
	}
	var nerr net.Error
	if !errors.As(sendErr, &nerr) || !nerr.Timeout() {
		t.Fatalf("got %v, want a timeout error", sendErr)
	}
	srv := <-accepted
	srv.Close()
}

// TestTCPPoolStats checks the receive-buffer rule on a socket: a small
// frame lands in the connection's own storage, so steady small-call traffic
// never touches the pool; a frame too big to keep takes a pooled buffer,
// and the first small frame after it gives that back and lands in the
// connection's storage again.
func TestTCPPoolStats(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		srv := NewTCPConn(c)
		defer srv.Close()
		for {
			req, err := srv.Recv()
			if err != nil {
				return
			}
			// A request of one byte asks for a reply too big to keep.
			var reply protocol.Message = &protocol.CodeResponse{}
			if len(req) == 1 {
				reply = rawFrame(make([]byte, 2*keepRecv))
			}
			if err := srv.Send(reply); err != nil {
				return
			}
		}
	}()

	cli, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	round := func(req protocol.Message) {
		t.Helper()
		if err := cli.Send(req); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	requests := func() int64 { st := cli.Stats(); return st.PoolHits + st.PoolMisses }
	const rounds = 8
	for i := 0; i < rounds; i++ {
		round(&protocol.SyncRequest{})
	}
	// Small replies land in the connection's own storage.
	if got := requests(); got != 0 {
		t.Fatalf("pool requests over %d small rounds = %d, want 0 (stats %+v)", rounds, got, cli.Stats())
	}
	round(rawFrame{1})
	round(&protocol.SyncRequest{})
	for i := 0; i < rounds; i++ {
		round(&protocol.SyncRequest{})
	}
	if got := requests(); got != 1 {
		t.Fatalf("pool requests after one big reply = %d, want 1 (stats %+v)", got, cli.Stats())
	}
}

func TestTCPOpTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c // accept and then never respond
		}
	}()

	cli, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetOpTimeout(50 * time.Millisecond)

	start := time.Now()
	_, err = cli.Recv()
	if err == nil {
		t.Fatal("Recv from a silent peer must time out")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("got %v, want a timeout error", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", elapsed)
	}

	// Disabling the timeout restores blocking semantics: a response now
	// arrives fine.
	cli.SetOpTimeout(0)
	srvConn := <-accepted
	srv := NewTCPConn(srvConn)
	defer srv.Close()
	if err := srv.Send(&protocol.CodeResponse{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Recv(); err != nil {
		t.Fatalf("Recv after clearing timeout: %v", err)
	}
	// Negative values are clamped to "disabled".
	cli.SetOpTimeout(-time.Second)
	if err := srv.Send(&protocol.CodeResponse{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Recv(); err != nil {
		t.Fatalf("Recv with clamped negative timeout: %v", err)
	}
}

// TestPipeOpDeadline checks the simulated pipe honors DeadlineCapable: a
// receive with no sender and a send into a full, undrained pipe must both
// fail with os.ErrDeadlineExceeded once armed, and the connection itself
// must survive (a deadline is a watchdog signal, not a teardown).
func TestPipeOpDeadline(t *testing.T) {
	clk := vclock.NewSim()
	cli, srv := Pipe(netsim.IB40G(), clk, nil)
	defer cli.Close()
	defer srv.Close()

	var dc DeadlineCapable = srv // compile-time capability check
	dc.SetOpTimeout(20 * time.Millisecond)

	start := time.Now()
	_, err := srv.Recv()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("idle recv got %v, want os.ErrDeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("deadline fired after %v, want promptly", waited)
	}

	// Disarming restores indefinite blocking: a frame sent afterwards is
	// received normally on the same, still-healthy connection.
	dc.SetOpTimeout(0)
	if err := cli.Send(&protocol.MallocRequest{Size: 64}); err != nil {
		t.Fatal(err)
	}
	payload, err := srv.Recv()
	if err != nil {
		t.Fatalf("recv after deadline: %v", err)
	}
	if _, err := protocol.DecodeRequest(payload); err != nil {
		t.Fatalf("decode after deadline: %v", err)
	}
}
