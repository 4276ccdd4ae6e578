package transport

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"rcuda/internal/faults"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/vclock"
)

// tcpPair returns two connected TCPConns over a real loopback socket.
func tcpPair(t *testing.T) (a, b *TCPConn) {
	t.Helper()
	ca, cb := socketPair(t)
	a, b = NewTCPConn(ca), NewTCPConn(cb)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

// socketPair is a connected pair of loopback sockets: dialed, accepted.
func socketPair(t *testing.T) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
			close(got)
			return
		}
		got <- c
	}()
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, ok := <-got
	if !ok {
		t.Fatal("accept failed")
	}
	return dialed, accepted
}

// TestFaultyConnInjectsReset drives a scripted reset and checks the typed
// error, the inner close, and the fault counter.
func TestFaultyConnInjectsReset(t *testing.T) {
	a, b := tcpPair(t)
	fc := NewFaultyConn(a, faults.Script(
		faults.Injection{Op: 1, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindReset}},
	))
	if err := fc.Send(&protocol.MallocRequest{Size: 1}); err != nil {
		t.Fatalf("clean op 0: %v", err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatalf("peer recv of clean frame: %v", err)
	}
	err := fc.Send(&protocol.MallocRequest{Size: 2})
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("op 1: got %v, want ErrInjectedReset", err)
	}
	// The inner connection must be dead: the peer sees EOF.
	if _, err := b.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("peer after reset: got %v, want EOF", err)
	}
	if st := fc.Stats(); st.FaultsInjected != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", st.FaultsInjected)
	}
}

// TestFaultyConnTruncatesFrameOnWire checks the satellite contract: a
// frame cut mid-payload surfaces on the peer as ErrTruncatedFrame, which
// wraps io.ErrUnexpectedEOF.
func TestFaultyConnTruncatesFrameOnWire(t *testing.T) {
	a, b := tcpPair(t)
	fc := NewFaultyConn(a, faults.Script(
		faults.Injection{Op: 0, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindTruncate, KeepBytes: 10}},
	))
	err := fc.Send(&protocol.MemcpyToDeviceRequest{Dst: 1, Data: make([]byte, 64)})
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("local side: got %v, want ErrInjectedReset", err)
	}
	_, rerr := b.Recv()
	if !errors.Is(rerr, ErrTruncatedFrame) {
		t.Fatalf("peer: got %v, want ErrTruncatedFrame", rerr)
	}
	if !errors.Is(rerr, io.ErrUnexpectedEOF) {
		t.Fatalf("peer: %v does not wrap io.ErrUnexpectedEOF", rerr)
	}
}

// TestTCPRecvClassifiesTruncation exercises the raw classification without
// FaultyConn: a header promising more payload than arrives, and a torn
// header, both map to ErrTruncatedFrame; a clean close stays io.EOF.
func TestTCPRecvClassifiesTruncation(t *testing.T) {
	cut := func(t *testing.T, raw []byte, wantTruncated bool) {
		t.Helper()
		a, b := tcpPair(t)
		if _, err := a.c.Write(raw); err != nil {
			t.Fatal(err)
		}
		_ = a.Close()
		_, err := b.Recv()
		if wantTruncated {
			if !errors.Is(err, ErrTruncatedFrame) || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("got %v, want ErrTruncatedFrame wrapping io.ErrUnexpectedEOF", err)
			}
		} else if !errors.Is(err, io.EOF) || errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("got %v, want plain io.EOF", err)
		}
	}
	t.Run("mid-payload", func(t *testing.T) { cut(t, []byte{10, 0, 0, 0, 1, 2, 3}, true) })
	t.Run("zero-payload-bytes", func(t *testing.T) { cut(t, []byte{4, 0, 0, 0}, true) })
	t.Run("mid-header", func(t *testing.T) { cut(t, []byte{9, 0}, true) })
	t.Run("clean-close", func(t *testing.T) { cut(t, nil, false) })
}

// TestFaultyConnPartialWriteIsTransparent checks a split frame reassembles
// byte-identically on the peer.
func TestFaultyConnPartialWriteIsTransparent(t *testing.T) {
	a, b := tcpPair(t)
	fc := NewFaultyConn(a, faults.Script(
		faults.Injection{Op: 0, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindPartialWrite, KeepBytes: 7}},
	))
	msg := &protocol.MemcpyToDeviceRequest{Dst: 9, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	if err := fc.Send(msg); err != nil {
		t.Fatalf("split send: %v", err)
	}
	payload, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	req, err := protocol.DecodeRequest(payload)
	if err != nil {
		t.Fatalf("peer decode after split: %v", err)
	}
	got, ok := req.(*protocol.MemcpyToDeviceRequest)
	if !ok || got.Dst != 9 || len(got.Data) != 8 {
		t.Fatalf("peer decoded %#v", req)
	}
	if st := fc.Stats(); st.FaultsInjected != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", st.FaultsInjected)
	}
}

// TestFaultyConnStallSurfacesDeadline checks a stall fails with the
// os.ErrDeadlineExceeded class retry logic keys on.
func TestFaultyConnStallSurfacesDeadline(t *testing.T) {
	a, _ := tcpPair(t)
	fc := NewFaultyConn(a, faults.Script(
		faults.Injection{Op: 0, Dir: faults.DirRecv, Decision: faults.Decision{Kind: faults.KindStall, Delay: time.Millisecond}},
	))
	start := time.Now()
	_, err := fc.Recv()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want os.ErrDeadlineExceeded", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("stall did not block for its delay")
	}
}

// TestFaultyConnPreservesPipeCapabilities checks wrapping a PipeEnd keeps
// what the chunked data path times itself by — a receive through the
// wrapper reports the arrival instant the pipe stamped, not NoArrival —
// and that injected resets work there too.
func TestFaultyConnPreservesPipeCapabilities(t *testing.T) {
	clk := vclock.NewSim()
	cli, srv := Pipe(netsim.IB40G(), clk, nil)
	fc := NewFaultyConn(cli, faults.Script(
		faults.Injection{Op: 2, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindReset}},
	))
	if err := fc.Send(&protocol.SyncRequest{}); err != nil {
		t.Fatalf("clean pipe send: %v", err)
	}
	if _, err := srv.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Send(&protocol.CodeResponse{}); err != nil {
		t.Fatal(err)
	}
	_, _, at, err := RecvLanding(fc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sent, ok := srv.LastSendOn(clk); !ok || at != sent {
		t.Fatalf("arrival through the wrapper %v, want the pipe's stamp %v (ok %v)", at, sent, ok)
	}
	if err := fc.Send(&protocol.SyncRequest{}); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("got %v, want ErrInjectedReset", err)
	}
	if _, err := srv.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer after pipe reset: got %v, want ErrClosed", err)
	}
}

// TestFaultyConnPipeTruncationMalformsPeerDecode checks the pipe's
// truncation analogue: the peer receives a short payload that fails to
// decode, and the connection is closed.
func TestFaultyConnPipeTruncationMalformsPeerDecode(t *testing.T) {
	clk := vclock.NewSim()
	cli, srv := Pipe(netsim.IB40G(), clk, nil)
	fc := NewFaultyConn(cli, faults.Script(
		faults.Injection{Op: 0, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindTruncate, KeepBytes: 6}},
	))
	err := fc.Send(&protocol.MemcpyToDeviceRequest{Dst: 1, Data: make([]byte, 32)})
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("local: got %v, want ErrInjectedReset", err)
	}
	payload, rerr := srv.Recv()
	if rerr != nil {
		t.Fatalf("pipe truncation should deliver the short payload, got %v", rerr)
	}
	if len(payload) != 6 {
		t.Fatalf("peer got %d bytes, want 6", len(payload))
	}
	if _, derr := protocol.DecodeRequest(payload); derr == nil {
		t.Fatal("truncated payload decoded cleanly")
	}
	if _, err := srv.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("connection survived truncation: %v", err)
	}
}

// TestFaultyConnCleanPassThrough runs a seeded plan with zero rates plus a
// nil plan and checks both are transparent.
func TestFaultyConnCleanPassThrough(t *testing.T) {
	for _, plan := range []*faults.Plan{nil, faults.Seeded(1, faults.Config{})} {
		a, b := tcpPair(t)
		fc := NewFaultyConn(a, plan)
		for i := 0; i < 10; i++ {
			if err := fc.Send(&protocol.FreeRequest{DevPtr: uint32(i)}); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		if st := fc.Stats(); st.FaultsInjected != 0 || st.MessagesSent != 10 {
			t.Fatalf("pass-through stats: %+v", st)
		}
	}
}
