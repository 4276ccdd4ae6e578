package rcuda

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
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
		WithRetry(4, 100*time.Microsecond), WithReconnect(dial))
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
		WithRetry(4, 100*time.Microsecond), WithReconnect(dial))
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
		WithRetry(3, 50*time.Microsecond), WithReconnect(faultyDialer(addr2, nil)))
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

// TestRetryWithoutReconnectExhausts runs retries with no dialer: the
// attempts burn down against a dead connection and the call reports
// ErrSessionLost after the configured attempt count.
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
	client, err := Open(transport.NewFaultyConn(conn, plan), moduleImage(t, calib.MM),
		WithRetry(3, 50*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if err := client.DeviceSynchronize(); !errors.Is(err, ErrSessionLost) {
		t.Fatalf("got %v, want ErrSessionLost after exhaustion", err)
	}
	if cs := client.Stats(); cs.Retries != 2 || cs.ConnFaults != 3 {
		t.Fatalf("client stats %+v, want 2 retries over 3 attempts", cs)
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
