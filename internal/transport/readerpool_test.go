package transport

import (
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
)

// stampedFrame is a frame that can be checked on its own: its length, then
// nothing but its connection's id byte.
func stampedFrame(id byte, n int) []byte {
	f := make([]byte, n)
	for i := range f {
		f[i] = id
	}
	binary.LittleEndian.PutUint32(f, uint32(n))
	return f
}

// wholeStamped reports whether p is one complete stampedFrame of id.
func wholeStamped(p []byte, id byte) bool {
	if len(p) < 4 || int(binary.LittleEndian.Uint32(p)) != len(p) {
		return false
	}
	for _, b := range p[4:] {
		if b != id {
			return false
		}
	}
	return true
}

// TestCloseDuringReceive closes a thousand loopback connections from a second
// goroutine while the first is blocked in a receive, between two, or about
// to start one. Every receive must return an error or one whole frame of its
// own connection, and the next connection — which takes the reader Close just
// released, before the old receiver has been waited for — must see the same.
// A reader released while a receive still held it would be shared by two
// goroutines: the race detector reports it, and without the detector the
// frames stop checking out. Close twice stays safe, and a receive that starts
// after Close fails on the closed socket without a reader to touch.
func TestCloseDuringReceive(t *testing.T) {
	const conns = 1000
	sizes := []int{16, 3000, LandFloor + 5000}
	rng := rand.New(rand.NewSource(16))
	var receivers sync.WaitGroup
	defer receivers.Wait()
	for i := 0; i < conns; i++ {
		id := byte(1 + i%250)
		a, b := tcpPair(t)
		frames := make([][]byte, rng.Intn(4))
		for j := range frames {
			frames[j] = stampedFrame(id, sizes[rng.Intn(len(sizes))])
		}
		closeAfter := rng.Intn(len(frames) + 1)
		yields := rng.Intn(4)

		go func() {
			for _, f := range frames {
				if a.Send(rawFrame(f)) != nil {
					return // the receiver was closed under the frame
				}
			}
		}()
		got := make(chan struct{}, len(frames))
		closedNow := make(chan struct{})
		receivers.Add(1)
		go func() {
			defer receivers.Done()
			for {
				p, err := b.Recv()
				if err != nil {
					break
				}
				if !wholeStamped(p, id) {
					t.Errorf("connection %d: received %d bytes that are not one of its frames", i, len(p))
					return
				}
				got <- struct{}{}
			}
			<-closedNow
			if _, err := b.Recv(); !errors.Is(err, net.ErrClosed) {
				t.Errorf("connection %d: receive after Close: %v, want the socket's closed error", i, err)
			}
		}()
		for j := 0; j < closeAfter; j++ {
			<-got
		}
		for j := 0; j < yields; j++ {
			runtime.Gosched()
		}
		if err := b.Close(); err != nil {
			t.Fatalf("connection %d: close: %v", i, err)
		}
		_ = b.Close()
		close(closedNow)
		_ = a.Close()
	}
}

// TestPooledReaderDoesNotBleed: the peer writes two frames and closes; the
// connection reads one and closes with the second still in its reader. The
// connection that gets that reader next sees its own bytes and its own EOF.
func TestPooledReaderDoesNotBleed(t *testing.T) {
	// The pool may hand the reader to another P or (under the race detector)
	// drop it; the scenario is repeated until the reader does come back.
	for attempt := 0; attempt < 50; attempt++ {
		a, b := tcpPair(t)
		for _, f := range [][]byte{stampedFrame(0xAA, 100), stampedFrame(0xBB, 100)} {
			if err := a.Send(rawFrame(f)); err != nil {
				t.Fatal(err)
			}
		}
		_ = a.Close()
		if p, err := b.Recv(); err != nil || !wholeStamped(p, 0xAA) {
			t.Fatalf("first frame: %d bytes, %v", len(p), err)
		}
		if _, err := b.br.Peek(1); err != nil {
			t.Fatalf("second frame never reached the reader: %v", err)
		}
		stale := b.br
		_ = b.Close()

		c, d := tcpPair(t)
		send, recv := c, d
		switch stale {
		case d.br:
		case c.br:
			send, recv = d, c
		default:
			continue
		}
		if err := send.Send(rawFrame(stampedFrame(0xCC, 100))); err != nil {
			t.Fatal(err)
		}
		_ = send.Close()
		if p, err := recv.Recv(); err != nil || !wholeStamped(p, 0xCC) {
			t.Fatalf("reused reader: %d bytes, %v, want the new connection's frame", len(p), err)
		}
		if p, err := recv.Recv(); err != io.EOF {
			t.Fatalf("reused reader: %d bytes, %v after the peer closed, want io.EOF", len(p), err)
		}
		return
	}
	t.Fatal("the pool never handed the released reader to the next connection; nothing was tested")
}
