package rcuda

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// startTCPServer runs a daemon on a loopback listener and returns its
// address plus a cleanup that stops it.
func startTCPServer(t *testing.T) (*Server, string, func()) {
	t.Helper()
	dev := gpu.New(gpu.Config{Clock: vclock.NewWall()})
	srv := NewServer(dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cleanup := func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	return srv, ln.Addr().String(), cleanup
}

// faultyDialer dials the server and wraps every connection in the shared
// fault plan, so the plan's operation counter spans reconnects too.
func faultyDialer(addr string, plan *faults.Plan) func() (transport.Conn, error) {
	return func() (transport.Conn, error) {
		conn, err := transport.DialTCP(addr)
		if err != nil {
			return nil, err
		}
		return transport.NewFaultyConn(conn, plan), nil
	}
}

// Client-side operation indices for a scripted plan, counting every Send
// and Recv from the connection's first byte: the init exchange is ops 0-1
// and the durable-session hello is ops 2-3, so the first post-open request
// sends at op 4.
const opsOpenDurable = 4

// TestRetryRecoversIdempotentOpAfterReset injects a reset into a memcpy's
// response and checks the call transparently retries on a reattached
// session, with every counter accounting for the recovery.
func TestRetryRecoversIdempotentOpAfterReset(t *testing.T) {
	srv, addr, cleanup := startTCPServer(t)
	defer cleanup()

	// op 4/5: malloc; op 6: memcpy send; op 7: memcpy recv — inject there.
	plan := faults.Script(
		faults.Injection{Op: opsOpenDurable + 3, Dir: faults.DirRecv, Decision: faults.Decision{Kind: faults.KindReset}},
	)
	dial := faultyDialer(addr, plan)
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM),
		WithRetry(time.Second), WithReconnect(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ptr, err := client.Malloc(uint32(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDevice(ptr, data); err != nil {
		t.Fatalf("memcpy through injected reset: %v", err)
	}
	if plan.Injected() == 0 {
		t.Fatal("scripted fault never fired; op indices drifted")
	}
	out := make([]byte, len(data))
	if err := client.MemcpyToHost(out, ptr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("read back %v, want %v", out, data)
	}

	cs := client.Stats()
	if cs.ConnFaults != 1 || cs.Reconnects != 1 || cs.Recovered != 1 || cs.Retries < 1 {
		t.Fatalf("client stats %+v", cs)
	}
	ss := srv.Stats()
	if ss.Reattaches != 1 || ss.SessionsParked != 1 {
		t.Fatalf("server stats %+v", ss)
	}
}

// TestNonIdempotentSurfacesSessionLostThenHeals kills the connection
// during a malloc: the malloc must fail with ErrSessionLost (its server
// outcome is unknown), but the session itself must heal — later calls
// reattach and find earlier allocations with their contents intact.
func TestNonIdempotentSurfacesSessionLostThenHeals(t *testing.T) {
	_, addr, cleanup := startTCPServer(t)
	defer cleanup()

	// op 4/5: malloc a; op 6/7: memcpy a; op 8: malloc b send — inject.
	plan := faults.Script(
		faults.Injection{Op: opsOpenDurable + 4, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindReset}},
	)
	dial := faultyDialer(addr, plan)
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM),
		WithRetry(time.Second), WithReconnect(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := []byte{9, 8, 7, 6, 5, 4, 3, 2}
	aPtr, err := client.Malloc(uint32(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDevice(aPtr, data); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Malloc(64); !errors.Is(err, ErrSessionLost) {
		t.Fatalf("interrupted malloc: %v, want ErrSessionLost", err)
	}
	// The session heals on the next call, and a's bytes survived the park.
	out := make([]byte, len(data))
	if err := client.MemcpyToHost(out, aPtr); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("allocation lost across reattach: %v, want %v", out, data)
	}
	if _, err := client.Malloc(64); err != nil {
		t.Fatalf("malloc after heal: %v", err)
	}
	if cs := client.Stats(); cs.Reconnects != 1 {
		t.Fatalf("client stats %+v, want exactly one reconnect", cs)
	}
}

// TestReattachRefusedLatchesSessionLost points the reconnect dialer at a
// server that never saw the session: the reattach is refused, the client
// latches lost, and every further call fails fast with ErrSessionLost.
func TestReattachRefusedLatchesSessionLost(t *testing.T) {
	_, addr1, cleanup1 := startTCPServer(t)
	defer cleanup1()
	_, addr2, cleanup2 := startTCPServer(t)
	defer cleanup2()

	plan := faults.Script(
		faults.Injection{Op: opsOpenDurable, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindReset}},
	)
	// Initial connection to server 1, reconnects land on server 2.
	conn, err := transport.DialTCP(addr1)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(transport.NewFaultyConn(conn, plan), moduleImage(t, calib.MM),
		WithRetry(100*time.Millisecond), WithReconnect(faultyDialer(addr2, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.DeviceSynchronize(); !errors.Is(err, ErrSessionLost) {
		t.Fatalf("sync through refused reattach: %v, want ErrSessionLost", err)
	}
	start := time.Now()
	if err := client.DeviceSynchronize(); !errors.Is(err, ErrSessionLost) {
		t.Fatalf("post-latch call: %v, want ErrSessionLost", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("post-latch call did not fail fast")
	}
}

// TestBaselineErrorsUnchangedWithoutRetry pins the pre-existing contract:
// a client with no retry options surfaces the raw transport error, never
// ErrSessionLost.
func TestBaselineErrorsUnchangedWithoutRetry(t *testing.T) {
	_, addr, cleanup := startTCPServer(t)
	defer cleanup()

	// No durable hello without WithReconnect, so the first request sends
	// at op 2.
	plan := faults.Script(
		faults.Injection{Op: 2, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindReset}},
	)
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(transport.NewFaultyConn(conn, plan), moduleImage(t, calib.MM))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	_, err = client.Malloc(64)
	if !errors.Is(err, transport.ErrInjectedReset) {
		t.Fatalf("got %v, want the raw transport error", err)
	}
	if errors.Is(err, ErrSessionLost) {
		t.Fatal("baseline client must not speak ErrSessionLost")
	}
	if cs := client.Stats(); cs.Retries != 0 || cs.Reconnects != 0 {
		t.Fatalf("baseline client retried: %+v", cs)
	}
}

// TestRetryWithoutReconnectExhausts runs a budgeted client with no dialer:
// with no session to reattach, the first connection fault ends the
// session at once, without retries against the dead connection, and the
// call and every later one report ErrSessionLost.
func TestRetryWithoutReconnectExhausts(t *testing.T) {
	_, addr, cleanup := startTCPServer(t)
	defer cleanup()

	plan := faults.Script(
		faults.Injection{Op: 2, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindReset}},
	)
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 100 * time.Millisecond
	client, err := Open(transport.NewFaultyConn(conn, plan), moduleImage(t, calib.MM),
		WithRetry(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	start := time.Now()
	if err := client.DeviceSynchronize(); !errors.Is(err, ErrSessionLost) {
		t.Fatalf("got %v, want ErrSessionLost", err)
	}
	if _, err := client.DeviceCount(); !errors.Is(err, ErrSessionLost) {
		t.Fatalf("the next call: %v, want ErrSessionLost", err)
	}
	if took := time.Since(start); took > budget {
		t.Errorf("the calls failed after %v, past their %v budget", took, budget)
	}
	if cs := client.Stats(); cs.Retries != 0 || cs.ConnFaults != 1 {
		t.Fatalf("client stats %+v, want one fault and no retry", cs)
	}
}

// TestRetryWithoutReconnectDropsALateReply: a client with a budget and no
// dialer gives up on a reply the daemon sends later than the budget. The
// connection ends with the session, so that reply, arrived since, is
// never read as the next call's: the next call fails with ErrSessionLost.
func TestRetryWithoutReconnectDropsALateReply(t *testing.T) {
	const budget, delay = 100 * time.Millisecond, 300 * time.Millisecond
	module := moduleImage(t, calib.MM)
	for _, tcp := range []bool{true, false} {
		t.Run(map[bool]string{true: "tcp", false: "pipe"}[tcp], func(t *testing.T) {
			// The daemon's ops: the init received and answered, the first
			// malloc received (op 2) and answered late (op 3).
			plan := faults.Script(faults.Injection{Op: 3, Dir: faults.DirSend,
				Decision: faults.Decision{Kind: faults.KindLatency, Delay: delay}})
			dial := wrappedDaemon(t, tcp, func(c transport.Conn) transport.Conn {
				return transport.NewFaultyConn(c, plan)
			})
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			client, err := Open(conn, module, WithRetry(budget))
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if _, err := client.Malloc(64); !errors.Is(err, ErrSessionLost) || !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("malloc answered late: %v, want ErrSessionLost and a deadline error", err)
			}
			time.Sleep(delay) // the late reply is sent meanwhile
			if plan.Injected() != 1 {
				t.Fatalf("%d latency injections, want the malloc's reply delayed", plan.Injected())
			}
			if ptr, err := client.Malloc(128); !errors.Is(err, ErrSessionLost) {
				t.Fatalf("the next malloc: %#x, %v; want ErrSessionLost, not the late reply", ptr, err)
			}
		})
	}
}

// TestRetryStopsAtARefusedRedial: a durable session's connection resets
// and nothing listens at the daemon's address any more. An idempotent call
// fails with ErrSessionLost at the first refused redial, not at the end of
// its budget, since no redial within it could reach the session.
func TestRetryStopsAtARefusedRedial(t *testing.T) {
	const budget = time.Second
	_, addr, cleanup := startTCPServer(t)
	defer cleanup()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone := ln.Addr().String()
	_ = ln.Close()
	plan := faults.Script(
		faults.Injection{Op: opsOpenDurable, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindReset}},
	)
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(transport.NewFaultyConn(conn, plan), moduleImage(t, calib.MM),
		WithRetry(budget), WithReconnect(func() (transport.Conn, error) { return transport.DialTCP(gone) }))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	err = client.DeviceSynchronize()
	if !errors.Is(err, ErrSessionLost) || !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("sync with its daemon gone: %v, want ErrSessionLost and a refused redial", err)
	}
	if took := time.Since(start); took > budget/10 {
		t.Errorf("the call failed after %v, want it at the first refused redial", took)
	}
	if cs := client.Stats(); cs.Retries != 1 || cs.Reconnects != 0 {
		t.Errorf("client stats %+v, want one redial and no reconnect", cs)
	}
}

// stallConn is a daemon's end of a connection that hands the server the
// first pass frames it receives and swallows every later one, so the
// server never answers them: a daemon that stops replying mid-session.
type stallConn struct {
	transport.Conn
	pass int
}

func (s *stallConn) Recv() ([]byte, error) {
	if s.pass == 0 {
		for {
			if _, err := s.Conn.Recv(); err != nil {
				return nil, err
			}
		}
	}
	s.pass--
	return s.Conn.Recv()
}

// wrappedDaemon serves a server over loopback TCP or over simulated pipes,
// the daemon's end of each connection wrapped by wrap, and returns its
// dialer.
func wrappedDaemon(t *testing.T, tcp bool, wrap func(transport.Conn) transport.Conn) func() (transport.Conn, error) {
	t.Helper()
	clk := vclock.NewSim()
	srv := NewServer(gpu.New(gpu.Config{Clock: clk}))
	var wg sync.WaitGroup
	serve := func(conn transport.Conn) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.ServeConn(wrap(conn))
			_ = conn.Close()
		}()
	}
	dial := func() (transport.Conn, error) {
		cli, end := transport.Pipe(netsim.IB40G(), clk, nil)
		serve(end)
		return cli, nil
	}
	var ln net.Listener
	if tcp {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				serve(transport.NewTCPConn(c))
			}
		}()
		dial = func() (transport.Conn, error) { return transport.DialTCP(ln.Addr().String()) }
	}
	t.Cleanup(func() {
		if ln != nil {
			_ = ln.Close()
		}
		_ = srv.Close()
		wg.Wait()
	})
	return dial
}

// TestRetryBudgetBoundsAStalledDaemon: a daemon answers the init and the
// hello and then never replies. An idempotent call, a non-idempotent one
// and a chunked copy stalled at its second chunk each fail within their
// budget, with an error that wraps both ErrSessionLost and the deadline.
func TestRetryBudgetBoundsAStalledDaemon(t *testing.T) {
	const budget = 200 * time.Millisecond
	module := moduleImage(t, calib.MM)
	calls := []struct {
		name string
		pass int // frames the daemon answers: the init, the hello, and more
		call func(c *Client) error
	}{
		{"idempotent", 2, func(c *Client) error { return c.DeviceSynchronize() }},
		{"non-idempotent", 2, func(c *Client) error { _, err := c.Malloc(64); return err }},
		// A malloc and the copy's Begin are answered, its first chunk taken.
		{"chunked copy", 5, func(c *Client) error {
			ptr, err := c.Malloc(4096)
			if err != nil {
				return err
			}
			return c.MemcpyToDevice(ptr, make([]byte, 4096))
		}},
	}
	for _, tcp := range []bool{true, false} {
		for _, tc := range calls {
			name := "pipe/" + tc.name
			if tcp {
				name = "tcp/" + tc.name
			}
			t.Run(name, func(t *testing.T) {
				dial := wrappedDaemon(t, tcp, func(c transport.Conn) transport.Conn {
					return &stallConn{Conn: c, pass: tc.pass}
				})
				conn, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				client, err := Open(conn, module, WithRetry(budget), WithReconnect(dial),
					WithChunkedTransfers(4096, 1024))
				if err != nil {
					t.Fatal(err)
				}
				defer client.Close()
				start := time.Now()
				err = tc.call(client)
				took := time.Since(start)
				if !errors.Is(err, ErrSessionLost) || !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("call to a stalled daemon: %v, want ErrSessionLost and a deadline error", err)
				}
				if took > budget+100*time.Millisecond {
					t.Errorf("the call failed after %v, want within its %v budget and 100 ms", took, budget)
				}
			})
		}
	}
}

// busyConn answers whatever is sent on it with a reattach refused as busy,
// as a daemon does while the session's old handler has not parked it yet.
type busyConn struct{}

func (busyConn) Send(protocol.Message) error { return nil }
func (busyConn) Recv() ([]byte, error) {
	return (&protocol.ReattachResponse{Err: protocol.CodeServerBusy}).Encode(nil), nil
}
func (busyConn) Close() error           { return nil }
func (busyConn) Stats() transport.Stats { return transport.Stats{} }

// TestRetryRedialsARefusedReattachWithinBudget: a durable session's
// connection resets, and the daemon refuses the next reattaches as busy. A
// malloc, which is not idempotent, redials with backoff until a reattach
// is taken, since nothing was sent on the refused connections, and is then
// sent once: it succeeds within its budget and the device holds exactly
// its allocation.
func TestRetryRedialsARefusedReattachWithinBudget(t *testing.T) {
	const budget, refusals, size = time.Second, 6, 4096
	srv, addr, cleanup := startTCPServer(t)
	defer cleanup()
	// The first request after the open is reset before it leaves.
	plan := faults.Script(
		faults.Injection{Op: opsOpenDurable, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindReset}},
	)
	refused := 0
	dial := func() (transport.Conn, error) {
		if refused < refusals {
			refused++
			return busyConn{}, nil
		}
		return transport.DialTCP(addr)
	}
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(transport.NewFaultyConn(conn, plan), moduleImage(t, calib.MM),
		WithRetry(budget), WithReconnect(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.StreamCreate(); !errors.Is(err, ErrSessionLost) {
		t.Fatalf("stream create through a reset: %v, want ErrSessionLost", err)
	}
	start := time.Now()
	if _, err := client.Malloc(size); err != nil {
		t.Fatalf("malloc through %d refused reattaches: %v", refusals, err)
	}
	if took := time.Since(start); took > budget {
		t.Errorf("the malloc took %v, past its %v budget", took, budget)
	}
	if refused != refusals {
		t.Errorf("%d reattaches refused, want %d", refused, refusals)
	}
	if inUse := srv.devs[0].MemoryInUse(); inUse != size {
		t.Errorf("the device holds %d bytes, want the one %d-byte malloc", inUse, size)
	}
	if cs := client.Stats(); cs.Reconnects != 1 || cs.Retries < refusals || cs.Recovered != 1 {
		t.Errorf("client stats %+v, want one reconnect after at least %d retries, recovered", cs, refusals)
	}
}

// TestOpIdempotencyTable pins the retry classification: a drifted table
// could silently re-execute a launch or double an allocation after a
// fault of unknown outcome.
func TestOpIdempotencyTable(t *testing.T) {
	safe := []protocol.Op{
		protocol.OpMemcpyToDevice, protocol.OpMemcpyToHost,
		protocol.OpDeviceSynchronize, protocol.OpGetDeviceCount,
		protocol.OpSetDevice, protocol.OpGetDeviceProperties,
		protocol.OpMemset, protocol.OpStreamQuery, protocol.OpEventQuery,
		protocol.OpEventElapsed, protocol.OpStreamSynchronize,
		protocol.OpEventSynchronize, protocol.OpSessionHello,
		// Safe despite carrying launches: the server deduplicates replayed
		// batches by sequence number (see dispatchBatch).
		protocol.OpBatch,
	}
	unsafe := []protocol.Op{
		protocol.OpMalloc, protocol.OpFree, protocol.OpLaunch,
		protocol.OpStreamCreate, protocol.OpStreamDestroy,
		protocol.OpEventCreate, protocol.OpEventRecord,
		protocol.OpEventDestroy, protocol.OpMemcpyToDeviceAsync,
		protocol.OpMemcpyToHostAsync, protocol.OpMemcpyDeviceToDevice,
		protocol.OpInit, protocol.OpFinalize, protocol.OpSessionReattach,
	}
	for _, op := range safe {
		if !op.Idempotent() {
			t.Errorf("%v must be idempotent", op)
		}
	}
	for _, op := range unsafe {
		if op.Idempotent() {
			t.Errorf("%v must not be idempotent", op)
		}
	}
}
