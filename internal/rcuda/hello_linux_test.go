package rcuda

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"syscall"
	"testing"

	"rcuda/internal/calib"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// seqpacketPair returns the two ends of a connected SOCK_SEQPACKET socket
// pair. Such a socket keeps message boundaries: each write or writev the
// one end makes is read whole, and alone, by one read at the other, so the
// peer counts the writes a connection makes, whatever syscall made them.
func seqpacketPair(t *testing.T) (a, b net.Conn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_SEQPACKET|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Skipf("no SOCK_SEQPACKET socket pair: %v", err)
	}
	conns := make([]net.Conn, 2)
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), fmt.Sprintf("seqpacket-%d", i))
		conns[i], err = net.FileConn(f)
		_ = f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return conns[0], conns[1]
}

// frameOf is m's length-prefixed frame, encoded alone.
func frameOf(m protocol.Message) []byte {
	return m.Encode(binary.LittleEndian.AppendUint32(nil, uint32(m.WireSize())))
}

// TestOpenSendsInitAndHelloInOneWrite: over a socket, a durable Open makes
// one write for its init and its hello, and that write is the init frame
// followed by the hello frame, each as it would be sent alone. It holds on
// a connection kept from an earlier session (Release) as on a fresh one.
func TestOpenSendsInitAndHelloInOneWrite(t *testing.T) {
	cli, peer := seqpacketPair(t)
	defer peer.Close()
	img := moduleImage(t, calib.MM)
	hello := &protocol.SessionHelloRequest{Class: SchedRealtime, Weight: 2}
	initReply := &protocol.InitResponse{CapabilityMajor: 1, CapabilityMinor: 3}
	const sessions = 2
	// The peer hands over each session's first write, answers it, and
	// reads the finalize the session ends with.
	first := make(chan []byte, sessions)
	go func() {
		defer close(first)
		for i := 0; i < sessions; i++ {
			buf := make([]byte, 1<<20)
			n, err := peer.Read(buf)
			if err != nil {
				return
			}
			first <- append([]byte(nil), buf[:n]...)
			reply := frameOf(&protocol.SessionHelloResponse{Session: uint64(7 + i)})
			if _, err := peer.Write(append(frameOf(initReply), reply...)); err != nil {
				return
			}
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	var conn transport.Conn = transport.NewTCPConn(cli)
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	for i := 0; i < sessions; i++ {
		before := conn.Stats()
		obs := &sizeObserver{}
		client, err := Open(conn, img, WithSchedClass(hello.Class, hello.Weight), WithObserver(obs))
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		got := <-first
		if want := append(frameOf(&protocol.InitRequest{Module: img}), frameOf(hello)...); !bytes.Equal(got, want) {
			t.Fatalf("session %d: first write carried %d bytes, want the %d of the init frame and the hello frame", i, len(got), len(want))
		}
		if id := uint64(7 + i); client.sessionID != id || !client.durable {
			t.Errorf("session %d: id %d, durable %v; want the hello reply's session %d", i, client.sessionID, client.durable, id)
		}
		st := conn.Stats()
		if sent := st.MessagesSent - before.MessagesSent; sent != 2 || st.BytesSent-before.BytesSent != int64(len(img)+4+hello.WireSize()) {
			t.Errorf("session %d: connection counted %d messages, %d bytes; want two messages of Table I bytes",
				i, sent, st.BytesSent-before.BytesSent)
		}
		want := []observedCall{
			{protocol.OpInit, len(img) + 4, initReply.WireSize()},
			{protocol.OpSessionHello, hello.WireSize(), 12},
		}
		if fmt.Sprint(obs.calls) != fmt.Sprint(want) {
			t.Errorf("session %d: observer saw %v, want %v", i, obs.calls, want)
		}
		if conn, err = client.Release(); err != nil || conn == nil {
			t.Fatalf("session %d: Release handed back %v, %v", i, conn, err)
		}
	}
}
