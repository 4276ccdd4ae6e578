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
// followed by the hello frame, each as it would be sent alone.
func TestOpenSendsInitAndHelloInOneWrite(t *testing.T) {
	cli, peer := seqpacketPair(t)
	defer peer.Close()
	img := moduleImage(t, calib.MM)
	hello := &protocol.SessionHelloRequest{Class: SchedRealtime, Weight: 2}
	initReply := &protocol.InitResponse{CapabilityMajor: 1, CapabilityMinor: 3}
	first := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 1<<20)
		n, err := peer.Read(buf)
		if err != nil {
			close(first)
			return
		}
		first <- buf[:n]
		_, _ = peer.Write(append(frameOf(initReply), frameOf(&protocol.SessionHelloResponse{Session: 7})...))
	}()
	conn := transport.NewTCPConn(cli)
	obs := &sizeObserver{}
	client, err := Open(conn, img, WithSchedClass(hello.Class, hello.Weight), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got := <-first
	if want := append(frameOf(&protocol.InitRequest{Module: img}), frameOf(hello)...); !bytes.Equal(got, want) {
		t.Fatalf("first write carried %d bytes, want the %d of the init frame and the hello frame", len(got), len(want))
	}
	if client.sessionID != 7 || !client.durable {
		t.Errorf("session %d, durable %v; want the hello reply's session 7", client.sessionID, client.durable)
	}
	if st := conn.Stats(); st.MessagesSent != 2 || st.BytesSent != int64(len(img)+4+hello.WireSize()) {
		t.Errorf("connection counted %+v, want two messages of Table I bytes", st)
	}
	want := []observedCall{
		{protocol.OpInit, len(img) + 4, initReply.WireSize()},
		{protocol.OpSessionHello, hello.WireSize(), 12},
	}
	if fmt.Sprint(obs.calls) != fmt.Sprint(want) {
		t.Errorf("observer saw %v, want %v", obs.calls, want)
	}
}
