package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rcuda/internal/faults"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/vclock"
)

// rawFrame sends arbitrary bytes as one message.
type rawFrame []byte

func (m rawFrame) Encode(dst []byte) []byte { return append(dst, m...) }
func (m rawFrame) WireSize() int            { return len(m) }

// scriptLander answers Land from a per-frame script and records what it was
// asked, so a test can put the frame back together.
type scriptLander struct {
	mode  func(frameLen int) (head, land int) // land < 0 declines
	asked int
	head  int
	peek  []byte
	mem   []byte
}

func (s *scriptLander) Land(frameLen int, peek []byte) (int, []byte) {
	s.asked++
	s.peek = append(s.peek[:0], peek...)
	head, n := s.mode(frameLen)
	if n < 0 {
		s.head, s.mem = 0, nil
		return 0, nil
	}
	s.head, s.mem = head, make([]byte, n)
	return head, s.mem
}

// landingPairs builds every connection pair whose receive lands: the socket,
// the simulated pipe, and each behind a FaultyConn with nothing to inject.
func landingPairs(t *testing.T) map[string]func() (send, recv Conn) {
	pipe := func() (Conn, Conn) {
		a, b := Pipe(netsim.IB40G(), vclock.NewSim(), nil)
		t.Cleanup(func() { _ = a.Close() })
		return a, b
	}
	tcp := func() (Conn, Conn) { a, b := tcpPair(t); return a, b }
	return map[string]func() (Conn, Conn){
		"tcp":  tcp,
		"pipe": pipe,
		"faulty tcp": func() (Conn, Conn) {
			a, b := tcp()
			return a, NewFaultyConn(b, nil)
		},
		"faulty pipe": func() (Conn, Conn) {
			a, b := pipe()
			return a, NewFaultyConn(b, nil)
		},
	}
}

// TestLandingReassemblesWhatRecvReturns sends one seeded sequence of small
// and bulk frames twice — received whole, and received through a Lander that
// at random declines, takes everything between a head and a tail, or takes
// only part — and requires head + landed + tail to be the whole frame every
// time, with identical traffic counters. Every receive follows the buffer
// rule (see poolRequestsOK).
func TestLandingReassemblesWhatRecvReturns(t *testing.T) {
	for name, mk := range landingPairs(t) {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			frames := make([][]byte, 40)
			for i := range frames {
				n := 1 + rng.Intn(2000)
				switch rng.Intn(5) {
				case 0:
					n = LandFloor + rng.Intn(200<<10)
				case 1:
					n = LandFloor - 1 + rng.Intn(3) // straddle the floor
				case 2:
					// Straddle the kept bound, with the header and without.
					n = keepRecv - protocol.FrameHeaderSize + rng.Intn(protocol.FrameHeaderSize+2)
				}
				frames[i] = make([]byte, n)
				rng.Read(frames[i])
			}
			send := func(c Conn) {
				for _, f := range frames {
					if err := c.Send(rawFrame(f)); err != nil {
						t.Errorf("%s: send: %v", name, err)
						return
					}
				}
			}

			sa, ra := mk()
			go send(sa)
			kept := 0
			for i, f := range frames {
				before := poolRequests(ra)
				got, err := ra.Recv()
				if err != nil || !bytes.Equal(got, f) {
					t.Fatalf("%s seed %d: frame %d received whole: %v", name, seed, i, err)
				}
				if !poolRequestsOK(name, kept, len(got), poolRequests(ra)-before) {
					t.Fatalf("%s seed %d: frame %d of %d bytes after a %d-byte buffer: %d pool requests",
						name, seed, i, len(got), kept, poolRequests(ra)-before)
				}
				kept = keptAfter(t, name, ra, kept, len(got))
			}

			sb, rb := mk()
			go send(sb)
			lander := &scriptLander{mode: func(frameLen int) (int, int) {
				head := rng.Intn(LandPeek + 1)
				switch rng.Intn(3) {
				case 0:
					return 0, -1
				case 1:
					return head, frameLen - head - rng.Intn(9) // up to an 8-byte tail
				default:
					return head, 1 + rng.Intn(frameLen-head-8) // lands short
				}
			}}
			offered := 0
			kept = 0
			for i, f := range frames {
				lander.mem = nil
				before, requested := lander.asked, poolRequests(rb)
				payload, landed, _, err := rb.(LandingReceiver).RecvLanding(lander)
				if err != nil {
					t.Fatalf("%s seed %d: frame %d: %v", name, seed, i, err)
				}
				if asked := lander.asked > before; asked != (len(f) >= LandFloor) {
					t.Fatalf("%s seed %d: frame %d of %d bytes: lander asked=%v", name, seed, i, len(f), asked)
				} else if asked {
					offered++
					if !bytes.Equal(lander.peek, f[:LandPeek]) {
						t.Fatalf("%s seed %d: frame %d: lander peeked %x", name, seed, i, lander.peek)
					}
				}
				if (landed == nil) != (lander.mem == nil) || (landed != nil && &landed[0] != &lander.mem[0]) {
					t.Fatalf("%s seed %d: frame %d: landed is not the lander's memory", name, seed, i)
				}
				whole := append(append(append([]byte(nil), payload[:lander.head]...), landed...), payload[lander.head:]...)
				if !bytes.Equal(whole, f) {
					t.Fatalf("%s seed %d: frame %d (%d bytes, head %d, landed %d) does not reassemble",
						name, seed, i, len(f), lander.head, len(landed))
				}
				if !poolRequestsOK(name, kept, len(payload), poolRequests(rb)-requested) {
					t.Fatalf("%s seed %d: landed frame %d (%d bytes in the buffer) after a %d-byte buffer: %d pool requests",
						name, seed, i, len(payload), kept, poolRequests(rb)-requested)
				}
				kept = keptAfter(t, name, rb, kept, len(payload))
			}
			if offered == 0 {
				t.Fatalf("%s seed %d: no frame reached the lander", name, seed)
			}
			sta, stb := ra.Stats(), rb.Stats()
			if sta.BytesRecv != stb.BytesRecv || sta.MessagesRecv != stb.MessagesRecv {
				t.Fatalf("%s seed %d: whole %+v, landing %+v", name, seed, sta, stb)
			}
		}
	}
}

func poolRequests(c Conn) int64 {
	st := c.Stats()
	return st.PoolHits + st.PoolMisses
}

// keptBuffer is the capacity of a socket's kept receive buffer that a frame
// of need bytes in a buffer finds usable, given the capacity kept: none when
// the buffer is too big to keep.
func keptBuffer(kept int) int {
	if kept > keepRecv {
		return 0
	}
	return kept
}

// frameWant is the size of the buffer a socket asks for a frame of need
// bytes: room for the header too while that fits keepRecv.
func frameWant(need int) int {
	if want := protocol.FrameHeaderSize + need; want <= keepRecv {
		return want
	}
	return need
}

// poolRequestsOK is the receive-buffer rule: a receive that puts need bytes
// in a buffer asks the pool for one exactly when the socket's kept buffer,
// of capacity kept, is too small for the buffer the frame wants or too big
// to keep — except for a frame that fits idleRecv with its header, which
// goes to the connection's own storage then, and on the simulated pipe,
// where a frame that did not travel by reference arrives in the sender's
// buffer and asks for none.
func poolRequestsOK(name string, kept, need int, requests int64) bool {
	if strings.HasSuffix(name, "pipe") {
		return requests == 0
	}
	if k := keptBuffer(kept); k > 0 && frameWant(need) <= k || protocol.FrameHeaderSize+need <= idleRecv {
		return requests == 0
	}
	return requests == 1
}

// keptAfter is the capacity of the buffer a socket keeps after a receive
// that put need bytes in a buffer, given the capacity it kept before: its
// kept buffer when the frame fits it, its own storage (0) when the frame
// fits that with its header and no usable kept buffer takes it, and else a
// pooled buffer of the class the frame wants. It checks the connection
// keeps exactly that; the pipe keeps no model.
func keptAfter(t *testing.T, name string, c Conn, kept, need int) int {
	t.Helper()
	if strings.HasSuffix(name, "pipe") {
		return 0
	}
	want := frameWant(need)
	k := keptBuffer(kept)
	switch {
	case k > 0 && want <= k:
	case protocol.FrameHeaderSize+need <= idleRecv:
		k = 0
	default:
		k = 1 << (poolClass(want) + minPoolClass)
	}
	if f, ok := c.(*FaultyConn); ok {
		c = f.inner
	}
	if got := cap(c.(*TCPConn).lastRecv); got != k {
		t.Fatalf("%s: after a frame of %d bytes in a buffer, the connection keeps %d bytes, want %d", name, need, got, k)
	}
	return k
}

// TestLandingRejectsImpossibleAnswers: a Lander that answers with a range
// the frame cannot hold is treated as declining.
func TestLandingRejectsImpossibleAnswers(t *testing.T) {
	frame := make([]byte, LandFloor+100)
	rand.New(rand.NewSource(7)).Read(frame)
	for name, mode := range map[string]func(int) (int, int){
		"longer than the frame":      func(n int) (int, int) { return 0, n + 1 },
		"past the end with its head": func(n int) (int, int) { return 20, n - 19 },
		"head beyond the peek":       func(n int) (int, int) { return LandPeek + 1, 100 },
		"negative head":              func(n int) (int, int) { return -1, 100 },
		"empty":                      func(n int) (int, int) { return 0, 0 },
	} {
		for tname, mk := range landingPairs(t) {
			s, r := mk()
			go func() { _ = s.Send(rawFrame(frame)) }()
			payload, landed, _, err := r.(LandingReceiver).RecvLanding(&scriptLander{mode: mode})
			if err != nil || landed != nil || !bytes.Equal(payload, frame) {
				t.Errorf("%s over %s: landed %d bytes, err %v", name, tname, len(landed), err)
			}
		}
	}
}

// TestRecvLandingFallsBackOnPlainConns: the package-level RecvLanding works
// on a connection that forwards nothing but Conn, and reports no arrival.
func TestRecvLandingFallsBackOnPlainConns(t *testing.T) {
	a, b := tcpPair(t)
	frame := make([]byte, LandFloor)
	go func() { _ = a.Send(rawFrame(frame)) }()
	lander := &scriptLander{mode: func(n int) (int, int) { return 0, n }}
	payload, landed, at, err := RecvLanding(struct{ Conn }{b}, lander)
	if err != nil || landed != nil || lander.asked != 0 || at != NoArrival || len(payload) != len(frame) {
		t.Fatalf("plain conn: %d bytes, landed %d, asked %d, at %v, err %v", len(payload), len(landed), lander.asked, at, err)
	}
	// The pipe stamps arrivals, landed or not.
	clk := vclock.NewSim()
	pa, pb := Pipe(netsim.GigaE(), clk, nil)
	defer pa.Close()
	if err := pa.Send(rawFrame(frame)); err != nil {
		t.Fatal(err)
	}
	sent := clk.Now()
	if _, landed, at, err := RecvLanding(pb, lander); err != nil || landed == nil || at != sent {
		t.Fatalf("pipe: landed %d, at %v (sent %v), err %v", len(landed), at, sent, err)
	}
}

// TestTruncationWhileLanding cuts a bulk frame inside its head, inside the
// landed bytes and inside the tail. Every cut is the same typed truncation a
// whole receive reports, counts nothing as received, leaves the bytes that
// did arrive in the lander's memory, and hands the pooled head/tail buffer
// back exactly once.
func TestTruncationWhileLanding(t *testing.T) {
	const head, bulk, tail = 20, 128 << 10, 4
	frame := make([]byte, head+bulk+tail)
	rand.New(rand.NewSource(3)).Read(frame)
	for _, tc := range []struct {
		name       string
		keep       int
		wantLanded int
	}{
		{"inside the head", 10, 0},
		{"at the first landed byte", head, 0},
		{"inside the landed bytes", head + bulk/2, bulk / 2},
		{"inside the tail", head + bulk + 2, bulk},
	} {
		a, b := tcpPair(t)
		go func() { _ = a.sendTruncated(rawFrame(frame), tc.keep) }()
		lander := &scriptLander{mode: func(n int) (int, int) { return head, bulk }}
		payload, landed, _, err := b.RecvLanding(lander)
		if payload != nil || landed != nil || !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("%s: payload %d, landed %d, err %v", tc.name, len(payload), len(landed), err)
		}
		want := fmt.Sprintf("%d of %d payload bytes", tc.keep, len(frame))
		if tc.keep < LandPeek {
			// The head never completed, so the lander was never asked and
			// the whole-frame read reports the cut.
			if lander.asked != 0 {
				t.Fatalf("%s: lander asked about a head that never arrived", tc.name)
			}
		} else if !bytes.Equal(lander.mem[:tc.wantLanded], frame[head:head+tc.wantLanded]) {
			t.Fatalf("%s: the bytes that arrived are not in the lander's memory", tc.name)
		}
		if got := err.Error(); !bytes.Contains([]byte(got), []byte(want)) {
			t.Fatalf("%s: error %q, want it to report %q", tc.name, got, want)
		}
		if st := b.Stats(); st.MessagesRecv != 0 || st.BytesRecv != 0 {
			t.Fatalf("%s: a truncated frame counted as received: %+v", tc.name, st)
		}
		// A buffer put back twice would come out of the pool twice.
		x, _ := GetBuffer(head + tail)
		y, _ := GetBuffer(head + tail)
		if &x[:1][0] == &y[:1][0] {
			t.Fatalf("%s: the pool handed one buffer out twice", tc.name)
		}
		PutBuffer(x)
		PutBuffer(y)
		if _, err := b.Recv(); err == nil {
			t.Fatalf("%s: receive after a truncation succeeded", tc.name)
		}
	}
}

func scriptedResetAt(op int) *faults.Plan {
	return faults.Script(faults.Injection{Op: op, Dir: faults.DirRecv, Decision: faults.Decision{Kind: faults.KindReset}})
}

// TestFaultyConnLandingTakesTheSameDecisions: a FaultyConn consults its plan
// once per receive whether or not the receive lands.
func TestFaultyConnLandingTakesTheSameDecisions(t *testing.T) {
	frame := (&protocol.MemcpyToDeviceRequest{Dst: 0x100, Data: make([]byte, LandFloor)}).Encode(nil)
	for _, landing := range []bool{false, true} {
		a, b := tcpPair(t)
		plan := scriptedResetAt(2)
		fc := NewFaultyConn(b, plan)
		go func() {
			for i := 0; i < 3; i++ {
				_ = a.Send(rawFrame(frame))
			}
		}()
		var lander Lander
		if landing {
			lander = &scriptLander{mode: func(n int) (int, int) { return 20, n - 20 }}
		}
		for i := 0; i < 3; i++ {
			_, landed, _, err := fc.RecvLanding(lander)
			if i < 2 && (err != nil || (landed != nil) != landing) {
				t.Fatalf("landing=%v: receive %d: landed %d, err %v", landing, i, len(landed), err)
			}
			if i == 2 && !errors.Is(err, ErrInjectedReset) {
				t.Fatalf("landing=%v: receive 2: %v, want the injected reset", landing, err)
			}
		}
		if plan.Ops() != 3 || fc.Stats().FaultsInjected != 1 {
			t.Fatalf("landing=%v: plan consulted %d times, %d faults", landing, plan.Ops(), fc.Stats().FaultsInjected)
		}
	}
}
