package transport

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/raceflag"
	"rcuda/internal/vclock"
)

// deadlineCounter is a net.Conn that counts the deadline setters called on
// it.
type deadlineCounter struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *deadlineCounter) SetReadDeadline(t time.Time) error {
	c.reads.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c *deadlineCounter) SetWriteDeadline(t time.Time) error {
	c.writes.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

// countedPair returns a TCPConn over a deadline-counting net.Pipe end and
// its peer.
func countedPair(t *testing.T) (*TCPConn, *deadlineCounter, *TCPConn) {
	t.Helper()
	a, b := net.Pipe()
	counted := &deadlineCounter{Conn: a}
	cli, peer := NewTCPConn(counted), NewTCPConn(b)
	t.Cleanup(func() {
		_ = cli.Close()
		_ = peer.Close()
	})
	return cli, counted, peer
}

// exchange sends a pair of requests from cli and one reply from peer.
// net.Pipe writes block until read, so the peer runs on its own goroutine
// and reads both requests before it replies.
func exchange(t *testing.T, cli, peer *TCPConn) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 2; i++ {
			if _, err := peer.Recv(); err != nil {
				done <- err
				return
			}
		}
		done <- peer.Send(&protocol.CodeResponse{})
	}()
	if err := cli.SendPair(&protocol.MallocRequest{Size: 64}, &protocol.SyncRequest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestUnsetTimeoutArmsNoDeadline: a connection never given a timeout calls
// no deadline setter — each takes the poller's lock. One given a timeout
// arms each operation, and after SetOpTimeout(0) each direction clears its
// deadline once and then calls nothing again.
func TestUnsetTimeoutArmsNoDeadline(t *testing.T) {
	cli, counted, peer := countedPair(t)
	calls := func() (int64, int64) { return counted.reads.Load(), counted.writes.Load() }
	for i := 0; i < 3; i++ {
		exchange(t, cli, peer)
	}
	if r, w := calls(); r != 0 || w != 0 {
		t.Fatalf("with no timeout ever set: %d read and %d write deadline calls, want none", r, w)
	}
	cli.SetOpTimeout(time.Minute)
	exchange(t, cli, peer)
	r, w := calls()
	if r == 0 || w == 0 {
		t.Fatalf("with a timeout set: %d read and %d write deadline calls, want each operation armed", r, w)
	}
	cli.SetOpTimeout(0)
	exchange(t, cli, peer)
	exchange(t, cli, peer)
	if r2, w2 := calls(); r2 != r+1 || w2 != w+1 {
		t.Errorf("after SetOpTimeout(0): %d read and %d write deadline calls more, want one clear each", r2-r, w2-w)
	}
}

// TestArmedDeadlineServesLaterOps: operations that follow one another
// within a sixteenth of the bound keep the deadline the first armed, so
// they call no setter; a shorter bound re-arms at once and fires on time.
func TestArmedDeadlineServesLaterOps(t *testing.T) {
	cli, counted, peer := countedPair(t)
	calls := func() (int64, int64) { return counted.reads.Load(), counted.writes.Load() }
	cli.SetOpTimeout(time.Minute)
	for i := 0; i < 3; i++ {
		exchange(t, cli, peer)
	}
	if r, w := calls(); r != 1 || w != 1 {
		t.Fatalf("three exchanges under a 1 min bound: %d read and %d write deadline calls, want one each", r, w)
	}
	const d = 20 * time.Millisecond
	cli.SetOpTimeout(d)
	start := time.Now()
	if _, err := cli.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a receive with nothing sent under a %v bound: %v, want a deadline error", d, err)
	}
	if took := time.Since(start); took < d-d/16 || took > time.Second {
		t.Errorf("the receive failed after %v, want about %v", took, d)
	}
	if r, _ := calls(); r != 2 {
		t.Errorf("%d read deadline calls, want the shorter bound armed once more", r)
	}
}

// TestClearedTimeoutLetsAReadWait: after SetOpTimeout(d) armed the
// connection and SetOpTimeout(0) cleared it, a read that waits longer than
// d still succeeds.
func TestClearedTimeoutLetsAReadWait(t *testing.T) {
	const d = 20 * time.Millisecond
	cli, _, peer := countedPair(t)
	cli.SetOpTimeout(d)
	exchange(t, cli, peer)
	cli.SetOpTimeout(0)
	sent := make(chan error, 1)
	go func() {
		time.Sleep(5 * d)
		sent <- peer.Send(&protocol.CodeResponse{})
	}()
	if _, err := cli.Recv(); err != nil {
		t.Fatalf("a read waiting %v after the timeout was cleared: %v", 5*d, err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestBoundedPipeRoundTripAllocatesNothing: with a timeout set on both
// ends, a pipe round trip allocates nothing, since each direction of an end
// keeps its one timer and resets it per operation. The reused timers still
// fire: a receive with nothing sent fails with os.ErrDeadlineExceeded, and
// the round trips after it see no stale expiry.
func TestBoundedPipeRoundTripAllocatesNothing(t *testing.T) {
	cli, srv := Pipe(netsim.IB40G(), vclock.NewSim(), nil)
	defer cli.Close()
	cli.SetOpTimeout(time.Minute)
	srv.SetOpTimeout(time.Minute)
	req, reply := &protocol.SyncRequest{}, &protocol.CodeResponse{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := srv.Recv(); err != nil {
				return
			}
			if err := srv.Send(reply); err != nil {
				return
			}
		}
	}()
	roundTrip := func() {
		if err := cli.Send(req); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if !raceflag.Enabled { // sync.Pool drops buffers under the race detector
		if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
			t.Errorf("a bounded pipe round trip allocates %v times, want 0", allocs)
		}
	}
	cli.SetOpTimeout(10 * time.Millisecond)
	if _, err := cli.Recv(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a receive with nothing sent: %v, want a deadline error", err)
	}
	cli.SetOpTimeout(time.Minute)
	for i := 0; i < 3; i++ {
		roundTrip()
	}
	_ = cli.Close()
	<-done
}
