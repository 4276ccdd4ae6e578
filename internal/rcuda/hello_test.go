package rcuda

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
)

// Tests of the durable session's opening flight: the hello leaves right
// behind the init instead of a round trip later (DESIGN.md §5
// "Durable sessions").

// TestTypedRefusalWithHelloInFlight: a daemon that refuses a durable open —
// at its session cap or at its connection cap — has the init and the hello
// in its reader when it closes, so over real loopback TCP every refusal
// reaches the client as ErrServerBusy and none as a connection error.
func TestTypedRefusalWithHelloInFlight(t *testing.T) {
	const opens = 200
	for _, tc := range []struct {
		name     string
		opt      ServerOption
		rejected func(ServerStats) int64
	}{
		{"session cap", WithMaxSessions(1), func(s ServerStats) int64 { return s.RejectedSessions }},
		{"connection cap", WithMaxConns(1), func(s ServerStats) int64 { return s.RejectedConns }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, addr, cleanup := startHardenedServer(t, tc.opt)
			defer cleanup()
			holder, err := openPlain(t, addr)
			if err != nil {
				t.Fatalf("holder: %v", err)
			}
			defer holder.Close()
			module := moduleImage(t, calib.MM)
			dial := func() (transport.Conn, error) { return transport.DialTCP(addr) }
			for i := range opens {
				conn, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				c, err := Open(conn, module, WithReconnect(dial), WithSchedClass(SchedRealtime, 2))
				_ = conn.Close()
				if !errors.Is(err, ErrServerBusy) {
					if c != nil {
						_ = c.Close()
					}
					t.Fatalf("open %d: %v, want ErrServerBusy", i, err)
				}
			}
			if got := tc.rejected(srv.Stats()); got != opens {
				t.Errorf("server counted %d refusals, want %d", got, opens)
			}
		})
	}
}

// TestRefusalOutranksAFailedHello: when the hello's own Send fails after
// the init left (two Sends, the second refused), Open still reads the
// init's reply: a refused session is ErrServerBusy, and an admitted one
// reports the failed hello.
func TestRefusalOutranksAFailedHello(t *testing.T) {
	srv, _, addr, cleanup := startHardenedServer(t, WithMaxSessions(1))
	defer cleanup()
	module := moduleImage(t, calib.MM)
	open := func() error {
		conn, err := transport.DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		c, err := Open(&failSecondSend{Conn: conn}, module, WithSchedClass(SchedBatch, 1))
		if c != nil {
			t.Fatal("Open succeeded without its hello")
		}
		return err
	}
	// Admitted: the init's reply is a success, so the hello's failure is the
	// answer. Its connection closes with the session never made durable.
	if err := open(); err == nil || errors.Is(err, ErrServerBusy) || !strings.Contains(err.Error(), "session hello send") {
		t.Fatalf("admitted open: %v, want the hello's send error", err)
	}
	waitFor(t, "the half-open session's release", 2*time.Second, func() bool { return srv.Stats().SessionsActive == 0 })
	holder, err := openPlain(t, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := open(); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("refused open: %v, want ErrServerBusy", err)
	}
}

var errSecondSend = errors.New("second send refused")

// failSecondSend forwards only Conn and refuses every Send after the first.
type failSecondSend struct {
	transport.Conn
	sent int
}

func (c *failSecondSend) Send(m protocol.Message) error {
	if c.sent++; c.sent > 1 {
		return errSecondSend
	}
	return c.Conn.Send(m)
}

// TestOpenPipelinesTheHello: on a connection without transport.PairSender —
// a simulated pipe, seen here through a wrapper that logs each Send and
// Recv — a durable Open sends the init and the hello before it reads
// anything, then reads the two replies in order, and the Observer sees
// OpInit and then OpSessionHello with the sizes of each exchange.
func TestOpenPipelinesTheHello(t *testing.T) {
	d, _, _ := simDaemon(netsim.IB40G())
	conn, err := d.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := conn.(transport.PairSender); ok {
		t.Fatal("the pipe end is a PairSender; this test wants the two-Send path")
	}
	img := moduleImage(t, calib.MM)
	logged := &loggingConn{Conn: conn}
	obs := &sizeObserver{}
	client, err := Open(logged, img, WithSchedClass(SchedRealtime, 2), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	defer closeAndWait(t, client, d)()
	if got, want := strings.Join(logged.log, ", "),
		"send *protocol.InitRequest, send *protocol.SessionHelloRequest, recv, recv"; got != want {
		t.Errorf("Open ran %q, want %q", got, want)
	}
	initReply := (&protocol.InitResponse{}).WireSize()
	want := []observedCall{
		{protocol.OpInit, len(img) + 4, initReply},
		{protocol.OpSessionHello, 12, 12},
	}
	if fmt.Sprint(obs.calls) != fmt.Sprint(want) {
		t.Errorf("observer saw %v, want %v", obs.calls, want)
	}
}

// loggingConn forwards only Conn and logs each Send's message type and
// each Recv.
type loggingConn struct {
	transport.Conn
	log []string
}

func (c *loggingConn) Send(m protocol.Message) error {
	c.log = append(c.log, fmt.Sprintf("send %T", m))
	return c.Conn.Send(m)
}

func (c *loggingConn) Recv() ([]byte, error) {
	c.log = append(c.log, "recv")
	return c.Conn.Recv()
}

type observedCall struct {
	op         protocol.Op
	sent, recv int
}

// sizeObserver records every exchange with its sizes.
type sizeObserver struct{ calls []observedCall }

func (o *sizeObserver) Call(op protocol.Op, sent, recv int) {
	o.calls = append(o.calls, observedCall{op, sent, recv})
}

// parentDurableOpenAllocs is what a durable open+close allocated when the
// hello waited for the init's reply, measured with this same function.
const parentDurableOpenAllocs = 29

// TestDurableOpenAllocations: sending the hello behind the init costs no
// allocation: a durable open+close over loopback TCP (both ends and the
// server's handler counted) allocates no more than it did a round trip
// later.
func TestDurableOpenAllocations(t *testing.T) {
	skipUnderRace(t)
	lb := startLoopback(t, nil)
	defer lb.stop()
	module := moduleImage(t, calib.MM)
	dial := lb.dial(nil)
	open := func() {
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		c, err := Open(conn, module, WithReconnect(dial), WithSchedClass(SchedBatch, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	open()
	got := testing.AllocsPerRun(50, open)
	t.Logf("durable open+close: %v allocations (%d with the hello a round trip later)", got, parentDurableOpenAllocs)
	if got > parentDurableOpenAllocs {
		t.Errorf("durable open+close allocates %v times, %d with the hello a round trip later", got, parentDurableOpenAllocs)
	}
}
