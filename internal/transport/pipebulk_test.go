package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/raceflag"
	"rcuda/internal/vclock"
)

// Tests of bulk frames crossing the simulated pipe by reference (DESIGN.md
// §4): what the receiver sees is what the buffered whole-frame route
// delivers, and the sender's memory is the sender's again when Send returns.

// segmentedTypes builds every Segmented message around the same bulk bytes.
var segmentedTypes = map[string]func(data []byte) protocol.Segmented{
	"MemcpyToDeviceRequest": func(d []byte) protocol.Segmented {
		return &protocol.MemcpyToDeviceRequest{Dst: 0x1000, Src: 7, Data: d}
	},
	"MemcpyToDeviceAsyncRequest": func(d []byte) protocol.Segmented {
		return &protocol.MemcpyToDeviceAsyncRequest{Dst: 0x2000, Stream: 3, Data: d}
	},
	"MemcpyToHostResponse": func(d []byte) protocol.Segmented {
		return &protocol.MemcpyToHostResponse{Data: d, Err: 0x0badc0de}
	},
	"MemcpyStreamChunk": func(d []byte) protocol.Segmented {
		return &protocol.Chunk{Kind: protocol.OpMemcpyStreamChunk, Seq: 9, Data: d}
	},
	"MigrateChunk": func(d []byte) protocol.Segmented {
		return &protocol.Chunk{Kind: protocol.OpMigrateChunk, Seq: 4, Data: d}
	},
	"InitRequest": func(d []byte) protocol.Segmented { return &protocol.InitRequest{Module: d} },
}

// crossing is everything observable about one frame's trip through a pipe.
type crossing struct {
	payload, landed []byte
	head            int
	asked           int
	peek            []byte
	at, sentAt      time.Duration
	send, recv      Stats
}

// cross sends m over a fresh pipe whose noise is seeded, and receives it
// through a Lander running mode (nil: a plain Recv).
func cross(t *testing.T, m protocol.Message, seed int64, mode func(int) (int, int)) crossing {
	t.Helper()
	clk := vclock.NewSim()
	a, b := Pipe(netsim.GigaE(), clk, netsim.NewNoise(seed, 0.01))
	defer a.Close()
	sent := make(chan error, 1)
	go func() { sent <- a.Send(m) }()
	var c crossing
	var err error
	if mode == nil {
		c.payload, c.landed, c.at, err = b.RecvLanding(nil)
	} else {
		l := &scriptLander{mode: mode}
		c.payload, c.landed, c.at, err = b.RecvLanding(l)
		c.head, c.asked, c.peek = l.head, l.asked, l.peek
	}
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("send: %v", err)
	}
	var ok bool
	if c.sentAt, ok = a.LastSendOn(clk); !ok {
		t.Fatal("no departure stamp")
	}
	c.send, c.recv = a.Stats(), b.Stats()
	return c
}

func (c crossing) frame() []byte {
	whole := append([]byte(nil), c.payload[:c.head]...)
	return append(append(whole, c.landed...), c.payload[c.head:]...)
}

// TestPipeBulkFramesCrossAsWholeFramesDo: for every Segmented message type,
// bulk sizes around the landing floor and up past the pool's 16 MiB class,
// and every kind of Lander answer, the by-reference route hands the
// receiver the bytes, the arrival stamp and the counters the buffered
// whole-frame route (the same bytes sent as a non-Segmented message) does.
func TestPipeBulkFramesCrossAsWholeFramesDo(t *testing.T) {
	sizes := []int{0, LandFloor - 1, LandFloor, LandFloor + 1, 1 << 20, 16<<20 + 5}
	if testing.Short() || raceflag.Enabled {
		sizes[len(sizes)-1] = 2<<20 + 5 // the property does not depend on the size class
	}
	for seed := int64(1); seed <= 3; seed++ {
		data := make([]byte, sizes[len(sizes)-1])
		rand.New(rand.NewSource(seed)).Read(data)
		for name, mk := range segmentedTypes {
			for _, size := range sizes {
				m := mk(data[:size])
				want := m.Encode(nil)
				headLen, n := len(m.SegmentHead(nil)), len(want)
				landers := map[string]func(int) (int, int){
					"none":         nil,
					"declines":     func(int) (int, int) { return 0, -1 },
					"correct head": func(int) (int, int) { return headLen, size },
					"wrong head":   func(int) (int, int) { return 7, n - 7 - 3 },
					"short dst":    func(int) (int, int) { return headLen, size / 2 },
					"dst too long": func(int) (int, int) { return headLen, n - headLen + 1 },
				}
				for lname, mode := range landers {
					id := fmt.Sprintf("%s, %d bytes, lander %s, seed %d", name, size, lname, seed)
					ref := cross(t, rawFrame(want), seed, mode)
					got := cross(t, m, seed, mode)
					if !bytes.Equal(ref.frame(), want) || !bytes.Equal(got.frame(), want) {
						t.Fatalf("%s: the frame does not reassemble", id)
					}
					if !bytes.Equal(got.payload, ref.payload) || !bytes.Equal(got.landed, ref.landed) {
						t.Fatalf("%s: payload %d / landed %d bytes, whole-frame route %d / %d",
							id, len(got.payload), len(got.landed), len(ref.payload), len(ref.landed))
					}
					if got.asked != ref.asked || !bytes.Equal(got.peek, ref.peek) {
						t.Fatalf("%s: lander asked %d times with %x, whole-frame route %d with %x",
							id, got.asked, got.peek, ref.asked, ref.peek)
					}
					if got.at != ref.at || got.sentAt != ref.sentAt {
						t.Fatalf("%s: arrived %v, left %v; whole-frame route %v, %v", id, got.at, got.sentAt, ref.at, ref.sentAt)
					}
					for _, c := range []struct {
						what     string
						got, ref int64
					}{
						{"BytesSent", got.send.BytesSent, ref.send.BytesSent},
						{"MessagesSent", got.send.MessagesSent, ref.send.MessagesSent},
						{"BytesRecv", got.recv.BytesRecv, ref.recv.BytesRecv},
						{"MessagesRecv", got.recv.MessagesRecv, ref.recv.MessagesRecv},
					} {
						if c.got != c.ref || c.ref == 0 {
							t.Fatalf("%s: %s %d, whole-frame route %d", id, c.what, c.got, c.ref)
						}
					}
					if size < LandFloor {
						continue // buffered either way
					}
					// By reference, the sender stages nothing and the receiver
					// only what did not land.
					var staged int64
					if n-len(got.landed) >= LandFloor {
						staged = 1
					}
					if got.send.PoolBulk != 0 || got.recv.PoolBulk != staged {
						t.Fatalf("%s: bulk buffers: sender %d, receiver %d, want 0 and %d",
							id, got.send.PoolBulk, got.recv.PoolBulk, staged)
					}
				}
			}
		}
	}
}

// fill sets every byte of data to tag, by copies: under the race detector a
// byte loop over a thousand frames costs more than everything they test.
func fill(data []byte, tag byte) {
	data[0] = tag
	for n := 1; n < len(data); n *= 2 {
		copy(data[n:], data[:n])
	}
}

// bulkOf is a bulk frame whose every data byte is tag.
func bulkOf(data []byte, seq uint32, tag byte) *protocol.Chunk {
	fill(data, tag)
	return &protocol.Chunk{Kind: protocol.OpMemcpyStreamChunk, Seq: seq, Data: data}
}

// intact reports whether a received chunk frame (its payload, plus what
// landed if anything did) carries seq and nothing but tag.
func intact(payload, landed []byte, seq uint32, tag byte) bool {
	c, err := protocol.DecodeChunk(append(append([]byte(nil), payload...), landed...))
	return err == nil && c.Seq == seq && bytes.Count(c.Data, []byte{tag}) == len(c.Data)
}

// within runs f and brings the test binary down, every goroutine's stack
// printed, if it has not returned after ten seconds: a hang, not an error,
// is what a broken hand-over looks like.
func within(what string, f func()) {
	watchdog := time.AfterFunc(10*time.Second, func() { panic(what + ": still running after 10 s") })
	defer watchdog.Stop()
	f()
}

// TestPipeSenderOwnsItsSliceWhenSendReturns: the sender scribbles over its
// slice the instant Send returns; the receiver, landing or not, always
// holds what was sent, and the race detector sees no shared access.
func TestPipeSenderOwnsItsSliceWhenSendReturns(t *testing.T) {
	const frames, size = 64, LandFloor + 4096
	a, b := Pipe(netsim.IB40G(), vclock.NewSim(), nil)
	defer a.Close()
	within("overwrite after send", func() {
		go func() {
			data := make([]byte, size)
			for i := 0; i < frames; i++ {
				if err := a.Send(bulkOf(data, uint32(i), byte(i))); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
				fill(data, 0xEE)
			}
		}()
		var l Lander = &scriptLander{mode: func(n int) (int, int) { return 12, n - 12 }}
		for i := 0; i < frames; i++ {
			payload, landed, _, err := b.RecvLanding([]Lander{nil, l}[i%2])
			if err != nil || (landed != nil) != (i%2 == 1) || !intact(payload, landed, uint32(i), byte(i)) {
				t.Fatalf("frame %d: landed %d bytes, err %v, or not the bytes that were sent", i, len(landed), err)
			}
		}
	})
}

// TestPipeLandedFramesReuseTheReceiveBuffer is the receive-buffer rule on
// the pipe: the head and tail of the first landed frame take a pooled
// buffer, and every later one that fits reuses it. The sender encodes every
// head and tail into the one buffer its end keeps and asks the pool for
// none.
func TestPipeLandedFramesReuseTheReceiveBuffer(t *testing.T) {
	const frames, size = 8, LandFloor
	a, b := Pipe(netsim.IB40G(), vclock.NewSim(), nil)
	defer a.Close()
	within("landed frames", func() {
		go func() {
			data := make([]byte, size)
			for i := 0; i < frames; i++ {
				if err := a.Send(bulkOf(data, uint32(i), byte(i))); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
			}
		}()
		l := &scriptLander{mode: func(n int) (int, int) { return 12, n - 12 }}
		for i := 0; i < frames; i++ {
			payload, landed, _, err := b.RecvLanding(l)
			if err != nil || !intact(payload, landed, uint32(i), byte(i)) {
				t.Fatalf("frame %d: err %v, or not the bytes that were sent", i, err)
			}
		}
	})
	if got := poolRequests(b); got != 1 {
		t.Fatalf("%d landed frames took %d pooled buffers, want 1", frames, got)
	}
	if got := poolRequests(a); got != 0 {
		t.Fatalf("%d bulk sends took %d pooled buffers, want 0", frames, got)
	}
}

// TestPipeCloseDuringBulkSends closes the pipe from a third goroutine at a
// random point of a thousand bulk sends. Every Send returns nil — and then
// the receiver got that frame, whole — or ErrClosed — and then it never
// did, and nothing reads the bytes afterwards (the sender overwrites them;
// the race detector would see a late reader). Nothing hangs.
func TestPipeCloseDuringBulkSends(t *testing.T) {
	const frames, size = 1000, LandFloor
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	closeAfter := int64(rng.Intn(frames))
	a, b := Pipe(netsim.IB40G(), vclock.NewSim(), nil)
	var sends atomic.Int64
	var wg sync.WaitGroup
	delivered, received := 0, 0
	within(fmt.Sprintf("close after %d sends", closeAfter), func() {
		wg.Add(3)
		go func() { // sender
			defer wg.Done()
			data := make([]byte, size)
			closed := false
			for i := 0; i < frames; i++ {
				err := a.Send(bulkOf(data, uint32(i), byte(i)))
				sends.Add(1)
				switch {
				case err == nil && !closed:
					delivered++
				case errors.Is(err, ErrClosed):
					closed = true
				default:
					t.Errorf("send %d: %v (closed before: %v)", i, err, closed)
				}
				fill(data, 0xEE)
			}
		}()
		go func() { // receiver
			defer wg.Done()
			for {
				payload, landed, _, err := b.RecvLanding(nil)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("recv %d: %v", received, err)
					}
					return
				}
				if !intact(payload, landed, uint32(received), byte(received)) {
					t.Errorf("recv %d: not a whole frame", received)
					return
				}
				received++
			}
		}()
		go func() { // closer
			defer wg.Done()
			for sends.Load() < closeAfter {
				runtime.Gosched()
			}
			_ = b.Close()
		}()
		wg.Wait()
	})
	if delivered != received {
		t.Fatalf("closed after %d sends: %d sends reported delivery, %d frames were received", closeAfter, delivered, received)
	}
}

// TestPipeCloseWhileReceiverHoldsTheFrame: a Close that comes once the
// receiver has taken a frame does not fail its Send — the bounded copy is
// waited out, the frame is delivered and counted on both ends.
func TestPipeCloseWhileReceiverHoldsTheFrame(t *testing.T) {
	a, b := Pipe(netsim.IB40G(), vclock.NewSim(), nil)
	data := make([]byte, LandFloor)
	sent := make(chan error, 1)
	go func() { sent <- a.Send(bulkOf(data, 5, 0x55)) }()
	closing := &scriptLander{mode: func(n int) (int, int) {
		_ = a.Close()
		time.Sleep(5 * time.Millisecond) // the sender wakes on the close, and finds the frame taken
		return 12, n - 12
	}}
	within("close during the copy", func() {
		payload, landed, _, err := b.RecvLanding(closing)
		if err != nil || landed == nil || !intact(payload, landed, 5, 0x55) {
			t.Errorf("receive: landed %d bytes, err %v", len(landed), err)
		}
		if err := <-sent; err != nil {
			t.Errorf("send of a frame the receiver took: %v", err)
		}
	})
	if as, bs := a.Stats(), b.Stats(); as.MessagesSent != 1 || bs.MessagesRecv != 1 || as.BytesSent != bs.BytesRecv {
		t.Fatalf("sender %+v, receiver %+v", as, bs)
	}
}

// TestPipeBulkSendDeadline: with a timeout armed and no receiver, a bulk
// Send fails with os.ErrDeadlineExceeded and leaves no goroutine behind;
// the abandoned frame is never delivered, and the connection still works.
func TestPipeBulkSendDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	a, b := Pipe(netsim.IB40G(), vclock.NewSim(), nil)
	defer a.Close()
	a.SetOpTimeout(10 * time.Millisecond)
	data := make([]byte, LandFloor)
	within("bulk send with no receiver", func() {
		if err := a.Send(bulkOf(data, 1, 0x11)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("send with no receiver: %v, want a deadline error", err)
		}
	})
	if st := a.Stats(); st.MessagesSent != 0 || st.BytesSent != 0 {
		t.Fatalf("an abandoned frame counted as sent: %+v", st)
	}
	a.SetOpTimeout(0)
	within("send after a deadline", func() {
		go func() {
			if err := a.Send(bulkOf(data, 2, 0x22)); err != nil {
				t.Errorf("send after a deadline: %v", err)
			}
		}()
		payload, landed, _, err := b.RecvLanding(nil)
		if err != nil || !intact(payload, landed, 2, 0x22) {
			t.Errorf("after an abandoned frame: err %v, or the abandoned frame was delivered", err)
		}
	})
	// An abandoned frame found in the drain after Close is dropped too.
	a.SetOpTimeout(10 * time.Millisecond)
	within("second abandoned send", func() {
		if err := a.Send(bulkOf(data, 3, 0x33)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("send with no receiver: %v, want a deadline error", err)
		}
	})
	_ = a.Close()
	if payload, _, _, err := b.RecvLanding(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("receive after close: %d bytes, err %v; want the closed error", len(payload), err)
	}
	if st := b.Stats(); st.MessagesRecv != 1 {
		t.Fatalf("receiver counted %d messages, want 1", st.MessagesRecv)
	}
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after", before, n)
	}
}

// TestPipeBothEndsBulkSendAtOnce: the protocol never does this (bulk flows
// one way per exchange); if it happened, the armed timeout turns it into a
// deadline error on at least one side, never a hang.
func TestPipeBothEndsBulkSendAtOnce(t *testing.T) {
	a, b := Pipe(netsim.IB40G(), vclock.NewSim(), nil)
	defer a.Close()
	a.SetOpTimeout(10 * time.Millisecond)
	b.SetOpTimeout(10 * time.Millisecond)
	errs := make(chan error, 2)
	within("crossed bulk sends", func() {
		for _, end := range []*PipeEnd{a, b} {
			end := end
			go func() { errs <- end.Send(bulkOf(make([]byte, LandFloor), 0, 1)) }()
		}
		e1, e2 := <-errs, <-errs
		if !errors.Is(e1, os.ErrDeadlineExceeded) && !errors.Is(e2, os.ErrDeadlineExceeded) {
			t.Errorf("crossed bulk sends returned %v and %v, want a deadline error", e1, e2)
		}
	})
}

// TestPipeFailedSendReturnsItsFrameBuffer: every failure return of Send
// hands the pooled frame back. A bulk frame's head and tail take no pooled
// buffer at all: they live in the end's own buffer (class 0 below).
func TestPipeFailedSendReturnsItsFrameBuffer(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	// On one P, what Send puts back is what the next GetBuffer finds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	small := &protocol.MallocRequest{Size: 64}
	bulk := &protocol.MemcpyToDeviceRequest{Data: make([]byte, LandFloor)}
	liar := lyingFrame(make([]byte, 300))
	for _, tc := range []struct {
		name  string
		m     protocol.Message
		class int // bytes asked of the pool; 0 for none
		arm   func(a *PipeEnd)
		want  error
	}{
		{"closed, small", small, small.WireSize(), func(a *PipeEnd) { _ = a.Close() }, ErrClosed},
		{"closed, bulk", bulk, 0, func(a *PipeEnd) { _ = a.Close() }, ErrClosed},
		{"deadline, bulk", bulk, 0, func(a *PipeEnd) { a.SetOpTimeout(time.Millisecond) }, os.ErrDeadlineExceeded},
		{"deadline, full pipe", small, small.WireSize(), func(a *PipeEnd) {
			for i := 0; i < pipeBuffer; i++ {
				_ = a.Send(small)
			}
			a.SetOpTimeout(time.Millisecond)
		}, os.ErrDeadlineExceeded},
		{"size mismatch", liar, liar.WireSize(), func(*PipeEnd) {}, nil},
	} {
		a, _ := Pipe(netsim.IB40G(), vclock.NewSim(), nil)
		tc.arm(a)
		// Empty the class, so that the next buffer in it is the one Send took.
		for hit := tc.class > 0; hit; {
			_, hit = GetBuffer(tc.class)
		}
		before := a.Stats()
		err := a.Send(tc.m)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: send returned %v", tc.name, err)
		}
		if tc.class == 0 {
			if st := a.Stats(); st.PoolHits+st.PoolMisses != before.PoolHits+before.PoolMisses {
				t.Errorf("%s: send asked the pool for %d buffers, want 0", tc.name,
					st.PoolHits+st.PoolMisses-before.PoolHits-before.PoolMisses)
			}
			_ = a.Close()
			continue
		}
		if st := a.Stats(); st.PoolMisses != before.PoolMisses+1 {
			t.Fatalf("%s: send took %d fresh buffers, want 1", tc.name, st.PoolMisses-before.PoolMisses)
		}
		if _, hit := GetBuffer(tc.class); !hit {
			t.Errorf("%s: the frame buffer did not come back to the pool", tc.name)
		}
		_ = a.Close()
	}
}

// lyingFrame declares one byte more than it encodes.
type lyingFrame []byte

func (m lyingFrame) Encode(dst []byte) []byte { return append(dst, m...) }
func (m lyingFrame) WireSize() int            { return len(m) + 1 }
