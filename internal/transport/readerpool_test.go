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

	"rcuda/internal/protocol"
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

// TestPooledReaderDoesNotBleed: the peer writes two frames in one write and
// closes; the connection reads one, which leaves the second in its borrowed
// reader, and closes. The connection that borrows that reader next sees its
// own bytes and its own EOF.
func TestPooledReaderDoesNotBleed(t *testing.T) {
	// A receiver left running by another test may borrow the released
	// reader first; the scenario is repeated until it comes back here.
	for attempt := 0; attempt < 50; attempt++ {
		a, b := tcpPair(t)
		if _, err := SendPair(a, rawFrame(stampedFrame(0xAA, 100)), rawFrame(stampedFrame(0xBB, 100))); err != nil {
			t.Fatal(err)
		}
		_ = a.Close()
		if p, err := b.Recv(); err != nil || !wholeStamped(p, 0xAA) {
			t.Fatalf("first frame: %d bytes, %v", len(p), err)
		}
		if b.br == nil || b.br.Buffered() == 0 {
			t.Fatal("the second frame is not buffered in a borrowed reader")
		}
		stale := b.br
		_ = b.Close()

		c, d := tcpPair(t)
		if _, err := SendPair(c, rawFrame(stampedFrame(0xCC, 100)), rawFrame(stampedFrame(0xDD, 100))); err != nil {
			t.Fatal(err)
		}
		_ = c.Close()
		if p, err := d.Recv(); err != nil || !wholeStamped(p, 0xCC) {
			t.Fatalf("reused reader: %d bytes, %v, want the new connection's first frame", len(p), err)
		}
		if d.br != stale {
			continue
		}
		if p, err := d.Recv(); err != nil || !wholeStamped(p, 0xDD) {
			t.Fatalf("reused reader: %d bytes, %v, want the new connection's second frame", len(p), err)
		}
		if p, err := d.Recv(); err != io.EOF {
			t.Fatalf("reused reader: %d bytes, %v after the peer closed, want io.EOF", len(p), err)
		}
		return
	}
	t.Fatal("the released reader was never lent to the next connection; nothing was tested")
}

// readCounter counts the reads of the socket it wraps.
type readCounter struct {
	net.Conn
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

// TestIdleReceiveHoldsNoReader: a connection holds a reader only while a
// frame is unfinished or buffered. A frame that fits the storage the
// connection keeps arrives in exactly one read of the socket, into that
// storage; one that does not borrows a reader, which a receive that leaves
// nothing buffered gives back. An init+hello pair sent in one write keeps
// the reader from the init until the hello is read.
func TestIdleReceiveHoldsNoReader(t *testing.T) {
	dialed, accepted := socketPair(t)
	a := NewTCPConn(dialed)
	sock := &readCounter{Conn: accepted}
	b := NewTCPConn(sock)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	if b.br != nil {
		t.Fatal("a new connection holds a reader")
	}
	recv := func(what string, id byte, n, wantReads int) {
		t.Helper()
		before := sock.reads
		p, err := b.Recv()
		if err != nil || !wholeStamped(p, id) || len(p) != n {
			t.Fatalf("%s: %d bytes, %v", what, len(p), err)
		}
		if b.br != nil {
			t.Fatalf("%s: the receive left nothing buffered but kept its reader", what)
		}
		if got := sock.reads - before; wantReads > 0 && got != wantReads {
			t.Fatalf("%s: %d reads of the socket, want %d", what, got, wantReads)
		}
	}
	send := func(id byte, n int) {
		t.Helper()
		if err := a.Send(rawFrame(stampedFrame(id, n))); err != nil {
			t.Fatal(err)
		}
	}
	// A frame that fits the connection's own storage, header and all.
	small := idleRecv - protocol.FrameHeaderSize
	send(1, small)
	recv("small frame", 1, small, 1)
	// A bigger frame borrows a reader the first time; its buffer is kept,
	// so the next frame of its size arrives in one read.
	send(2, 1000)
	recv("first 1000-byte frame", 2, 1000, 0)
	for i := 0; i < 3; i++ {
		send(3, 1000)
		recv("next 1000-byte frame", 3, 1000, 1)
		send(4, 10)
		recv("small frame after it", 4, 10, 1)
	}
	// A frame of keepRecv payload bytes fits the kept bound only without
	// its header: its buffer is kept at its own size, and the next frame of
	// that size reuses it with no pool request, though it takes a reader.
	for i := 0; i < 3; i++ {
		requests := poolRequests(b)
		send(7, keepRecv)
		recv("keepRecv-byte frame", 7, keepRecv, 0)
		if cap(b.lastRecv) != keepRecv {
			t.Fatalf("a keepRecv-byte frame left a %d-byte buffer kept, want %d", cap(b.lastRecv), keepRecv)
		}
		if got := poolRequests(b) - requests; i > 0 && got != 0 {
			t.Fatalf("a keepRecv-byte frame after one: %d pool requests, want 0", got)
		}
	}

	// The pair: the init's module image is bigger than any storage a
	// connection keeps, and the hello rides behind it.
	const initSize, helloSize = 21486, 24
	if _, err := SendPair(a, rawFrame(stampedFrame(5, initSize)), rawFrame(stampedFrame(6, helloSize))); err != nil {
		t.Fatal(err)
	}
	if p, err := b.Recv(); err != nil || !wholeStamped(p, 5) {
		t.Fatalf("init: %d bytes, %v", len(p), err)
	}
	if b.br == nil || b.br.Buffered() != protocol.FrameHeaderSize+helloSize {
		t.Fatal("the hello is not waiting in the reader the init borrowed")
	}
	before := sock.reads
	recv("hello", 6, helloSize, 0)
	if sock.reads != before {
		t.Fatalf("the buffered hello took %d reads of the socket", sock.reads-before)
	}
}

// TestReaderListKeepsItsPeak: the free list keeps every reader given back,
// so a burst of receives that each hold a reader at once, repeated, borrows
// the readers the first burst made and allocates nothing.
func TestReaderListKeepsItsPeak(t *testing.T) {
	const burst = 40
	conns := make([]TCPConn, burst)
	pre := []byte{1}
	lendAll := func() {
		for i := range conns {
			conns[i].br = lendReader(nil, pre) // pre is all a reader reads here
		}
	}
	releaseAll := func() {
		for i := range conns {
			conns[i].releaseReader()
		}
	}
	lendAll()
	made := make(map[*lentReader]bool, burst)
	for i := range conns {
		made[conns[i].br] = true
	}
	releaseAll()
	if allocs := testing.AllocsPerRun(20, func() { lendAll(); releaseAll() }); allocs != 0 {
		t.Fatalf("a repeated burst of %d loans allocates %v times, want 0", burst, allocs)
	}
	lendAll()
	defer releaseAll()
	for i := range conns {
		if !made[conns[i].br] {
			t.Fatalf("loan %d of a repeated burst made a reader", i)
		}
	}
}
