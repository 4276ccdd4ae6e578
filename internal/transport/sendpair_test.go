package transport

import (
	"bytes"
	"errors"
	"testing"

	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/raceflag"
	"rcuda/internal/vclock"
)

// pairFrames are the two frames a durable session opens with: an init
// carrying a module image and an extended session hello.
func pairFrames() (*protocol.InitRequest, *protocol.SessionHelloRequest) {
	return &protocol.InitRequest{Module: bytes.Repeat([]byte{0x5a}, 3000)},
		&protocol.SessionHelloRequest{Class: protocol.SchedClassRealtime, Weight: 2}
}

// TestSendPairOverTCP: both frames arrive whole and in order, each the
// bytes of its own Send, counted as two messages; in steady state the pair
// allocates nothing on either end.
func TestSendPairOverTCP(t *testing.T) {
	a, b := tcpPair(t)
	init, hello := pairFrames()
	if n, err := SendPair(a, init, hello); n != 2 || err != nil {
		t.Fatalf("SendPair = %d, %v; want 2, nil", n, err)
	}
	for _, m := range []protocol.Message{init, hello} {
		payload, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(payload, m.Encode(nil)) {
			t.Fatalf("%T arrived as %x, want its own encoding", m, payload)
		}
	}
	st := a.Stats()
	if want := int64(init.WireSize() + hello.WireSize()); st.MessagesSent != 2 || st.BytesSent != want {
		t.Fatalf("sender stats %+v, want 2 messages of %d bytes", st, want)
	}
	if raceflag.Enabled {
		return // sync.Pool drops buffers under the race detector
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
	}()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := SendPair(a, init, hello); err != nil {
			t.Fatal(err)
		}
	})
	_ = a.Close()
	<-done
	if allocs != 0 {
		t.Errorf("SendPair over TCP allocates %v times per pair, want 0", allocs)
	}
}

// TestSendPairFallsBackToTwoSends: a connection without PairSender — the
// simulated pipe, or any wrapper that forwards only Conn — gets two Sends,
// and sent says which of them got out.
func TestSendPairFallsBackToTwoSends(t *testing.T) {
	a, b := Pipe(netsim.IB40G(), vclock.NewSim(), nil)
	defer a.Close()
	if _, ok := Conn(a).(PairSender); ok {
		t.Fatal("the pipe is a PairSender; its frames would skip the per-Send wire charge")
	}
	init, hello := pairFrames()
	if n, err := SendPair(a, init, hello); n != 2 || err != nil {
		t.Fatalf("SendPair = %d, %v; want 2, nil", n, err)
	}
	for _, m := range []protocol.Message{init, hello} {
		payload, err := b.Recv()
		if err != nil || !bytes.Equal(payload, m.Encode(nil)) {
			t.Fatalf("%T arrived as %x (%v)", m, payload, err)
		}
	}
	for fail, want := range []int{0, 1} {
		c := &failingSend{Conn: a, failAt: fail}
		if n, err := SendPair(c, init, hello); n != want || !errors.Is(err, errSendRefused) {
			t.Errorf("send %d failing: SendPair = %d, %v; want %d, the send's error", fail, n, err, want)
		}
	}
}

var errSendRefused = errors.New("send refused")

// failingSend fails its failAt-th Send (counting from 0) and passes the
// ones before it to Conn.
type failingSend struct {
	Conn
	failAt, sends int
}

func (c *failingSend) Send(m protocol.Message) error {
	if c.sends++; c.sends > c.failAt {
		return errSendRefused
	}
	return c.Conn.Send(m)
}
