package main

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Reference loops. Each is the cheapest stdlib-only program that moves the
// same bytes the same way as the workload it normalises, so a ratio metric
// reads "our cost in units of the bare network (or bare CPU)". They import
// nothing from the repository: no later change can make them faster.

// laps carries the two timed halves of a copy op (host→device, device→host);
// other ops leave it zero and are timed whole by the harness.
type laps [2]time.Duration

// opFunc is one closed-loop operation. A wrong result is reported through
// bad, a broken run through err.
type opFunc func() (l laps, bad bool, err error)

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// dialRaw dials with Nagle disabled, as transport.DialTCP does.
func dialRaw(addr string) (*net.TCPConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	tc := c.(*net.TCPConn)
	if err := tc.SetNoDelay(true); err != nil {
		_ = tc.Close()
		return nil, err
	}
	return tc, nil
}

// echoServer accepts connections and echoes 8-byte messages on each until
// the peer closes — the bare counterpart of the daemon's accept loop.
type echoServer struct {
	ln net.Listener
	wg sync.WaitGroup
}

func newEchoServer() (*echoServer, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	s := &echoServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer c.Close()
				var buf [8]byte
				for {
					if _, err := io.ReadFull(c, buf[:]); err != nil {
						return
					}
					if _, err := c.Write(buf[:]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return s, nil
}

func (s *echoServer) addr() string { return s.ln.Addr().String() }

func (s *echoServer) close() {
	_ = s.ln.Close()
	s.wg.Wait()
}

func pingPong(c net.Conn, buf *[8]byte) error {
	if _, err := c.Write(buf[:]); err != nil {
		return err
	}
	_, err := io.ReadFull(c, buf[:])
	return err
}

// refRTT is ref.rtt: an 8-byte ping-pong on a bare TCP connection — the
// frame header plus 4-byte payload a null call puts on the wire each way.
type refRTT struct {
	srv *echoServer
	c   *net.TCPConn
	buf [8]byte
}

func newRefRTT() (*refRTT, error) {
	srv, err := newEchoServer()
	if err != nil {
		return nil, err
	}
	c, err := dialRaw(srv.addr())
	if err != nil {
		srv.close()
		return nil, err
	}
	return &refRTT{srv: srv, c: c}, nil
}

func (r *refRTT) op() (laps, bool, error) { return laps{}, false, pingPong(r.c, &r.buf) }

func (r *refRTT) close() {
	_ = r.c.Close()
	r.srv.close()
}

// refConn is ref.conn: dial, four ping-pongs (init, hello, malloc, free —
// the exchanges of one churned session), close.
type refConn struct {
	srv *echoServer
	buf [8]byte
}

func newRefConn() (*refConn, error) {
	srv, err := newEchoServer()
	if err != nil {
		return nil, err
	}
	return &refConn{srv: srv}, nil
}

func (r *refConn) op() (laps, bool, error) {
	c, err := dialRaw(r.srv.addr())
	if err != nil {
		return laps{}, false, err
	}
	for i := 0; i < 4; i++ {
		if err := pingPong(c, &r.buf); err != nil {
			_ = c.Close()
			return laps{}, false, err
		}
	}
	return laps{}, false, c.Close()
}

func (r *refConn) close() { r.srv.close() }

// refStream is ref.stream: n bytes one way over bare TCP answered by a
// 4-byte ack (host→device), and an 8-byte request answered by n bytes
// (device→host). The peer lands the bytes in, and serves them from, one
// buffer of its own, as a device must.
type refStream struct {
	ln   net.Listener
	c    *net.TCPConn
	src  []byte
	dst  []byte
	hdr  [8]byte
	done chan error
}

func newRefStream(src, dst []byte) (*refStream, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	r := &refStream{ln: ln, src: src, dst: dst, done: make(chan error, 1)}
	n := len(src)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			r.done <- err
			return
		}
		defer c.Close()
		mem := make([]byte, n)
		var hdr [8]byte
		for {
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				r.done <- nil // peer closed
				return
			}
			switch binary.LittleEndian.Uint32(hdr[:]) {
			case 0:
				if _, err := io.ReadFull(c, mem); err != nil {
					r.done <- err
					return
				}
				if _, err := c.Write(hdr[:4]); err != nil {
					r.done <- err
					return
				}
			default:
				if _, err := c.Write(mem); err != nil {
					r.done <- err
					return
				}
			}
		}
	}()
	if r.c, err = dialRaw(ln.Addr().String()); err != nil {
		_ = ln.Close()
		return nil, err
	}
	return r, nil
}

func (r *refStream) op() (l laps, bad bool, err error) {
	t0 := time.Now()
	binary.LittleEndian.PutUint32(r.hdr[:], 0)
	if _, err = r.c.Write(r.hdr[:]); err != nil {
		return
	}
	if _, err = r.c.Write(r.src); err != nil {
		return
	}
	if _, err = io.ReadFull(r.c, r.hdr[:4]); err != nil {
		return
	}
	t1 := time.Now()
	binary.LittleEndian.PutUint32(r.hdr[:], 1)
	if _, err = r.c.Write(r.hdr[:]); err != nil {
		return
	}
	if _, err = io.ReadFull(r.c, r.dst); err != nil {
		return
	}
	l = laps{t1.Sub(t0), time.Since(t1)}
	return
}

func (r *refStream) close() {
	_ = r.c.Close()
	<-r.done
	_ = r.ln.Close()
}

// refMemmove is ref.memmove: one copy of the buffer per direction — the
// floor for moving bytes through an in-process pipe. The copies walk a ring
// of buffers about as large as the working set of the pipe's own copies
// (payload, two frames, device memory, result): on a machine whose last-level
// cache is larger than two buffers, copying back and forth between just two
// would measure how much of that cache the neighbours left us.
type refMemmove struct {
	ring [memmoveRing][]byte
	at   int
}

const memmoveRing = 6

// newRefMemmove fills every buffer of the ring with the payload, so no copy
// ever reads the kernel's shared zero page.
func newRefMemmove(payload []byte) *refMemmove {
	r := &refMemmove{}
	for i := range r.ring {
		r.ring[i] = hostBuffer(fmt.Sprintf("ring-%d", i), len(payload))
		copy(r.ring[i], payload)
	}
	return r
}

func (r *refMemmove) op() (laps, bool, error) {
	a, b, c := r.ring[r.at], r.ring[(r.at+1)%memmoveRing], r.ring[(r.at+2)%memmoveRing]
	r.at = (r.at + 2) % memmoveRing
	t0 := time.Now()
	copy(b, a)
	t1 := time.Now()
	copy(c, b)
	return laps{t1.Sub(t0), time.Since(t1)}, false, nil
}

// refCPU is ref.cpu: push refCPUItems seeded keys on a container/heap and
// pop them all — single-threaded, allocation-light, pointer-free work of
// the kind a discrete-event simulator spends its time on.
const refCPUItems = 300_000

type refCPU struct {
	seed int64
	h    u64Heap
}

type u64Heap []uint64

func (h u64Heap) Len() int           { return len(h) }
func (h u64Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h u64Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *u64Heap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *u64Heap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

func (r *refCPU) op() (laps, bool, error) {
	g := newRNG(r.seed, 0xc9)
	r.h = r.h[:0]
	for i := 0; i < refCPUItems; i++ {
		heap.Push(&r.h, g.next())
	}
	prev := uint64(0)
	for r.h.Len() > 0 {
		v := heap.Pop(&r.h).(uint64)
		if v < prev {
			return laps{}, false, fmt.Errorf("ref.cpu: heap order broken")
		}
		prev = v
	}
	return laps{}, false, nil
}
