package rcuda

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"rcuda/internal/blas"
	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// startBatchSession is startSimSession with client options, returning the
// client's transport end so tests can count wire messages.
func startBatchSession(t *testing.T, link *netsim.Link, srvOpts []ServerOption, cliOpts ...ClientOption) (*Client, *Server, transport.Conn, func()) {
	t.Helper()
	clk := vclock.NewSim()
	srv := NewServer(gpu.New(gpu.Config{Clock: clk}), srvOpts...)
	d := NewSimDaemon(srv, link, clk, nil)
	conn, _ := d.Dial()
	client, err := Open(conn, moduleImage(t, calib.MM), cliOpts...)
	if err != nil {
		t.Fatal(err)
	}
	return client, srv, conn, closeAndWait(t, client, d)
}

// sgemmBatched runs one 16x16 matrix product through the async path —
// copies, launch, and event record coalescible, then settle on the event —
// and returns the device result with the CPU oracle's. The device kernel and
// the oracle share the same Sgemm routine, so the comparison is bit-exact.
func sgemmBatched(t *testing.T, client *Client, seed int64, settle func(cudart.Event) error) (got, want []byte) {
	t.Helper()
	const m = 16
	rng := rand.New(rand.NewSource(seed))
	a := make([]float32, m*m)
	b := make([]float32, m*m)
	for i := range a {
		a[i] = rng.Float32()*2 - 1
		b[i] = rng.Float32()*2 - 1
	}
	nbytes := uint32(4 * m * m)
	ptrs := make([]cudart.DevicePtr, 3)
	for i := range ptrs {
		p, err := client.Malloc(nbytes)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	stream, err := client.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	event, err := client.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDeviceAsync(ptrs[0], cudart.Float32Bytes(a), stream); err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDeviceAsync(ptrs[1], cudart.Float32Bytes(b), stream); err != nil {
		t.Fatal(err)
	}
	if err := client.LaunchAsync(kernels.SgemmKernel,
		cudart.Dim3{X: 1, Y: 1}, cudart.Dim3{X: 16, Y: 16}, 0,
		gpu.PackParams(uint32(ptrs[0]), uint32(ptrs[1]), uint32(ptrs[2]), m), stream); err != nil {
		t.Fatal(err)
	}
	if err := client.EventRecord(event, stream); err != nil {
		t.Fatal(err)
	}
	if err := settle(event); err != nil {
		t.Fatalf("sync after batched work: %v", err)
	}
	got = make([]byte, nbytes)
	if err := client.MemcpyToHost(got, ptrs[2]); err != nil {
		t.Fatal(err)
	}
	if err := client.EventDestroy(event); err != nil {
		t.Fatal(err)
	}
	if err := client.StreamDestroy(stream); err != nil {
		t.Fatal(err)
	}
	for _, p := range ptrs {
		if err := client.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	wantF := make([]float32, m*m)
	if err := blas.Sgemm(m, m, m, a, b, wantF); err != nil {
		t.Fatal(err)
	}
	return got, cudart.Float32Bytes(wantF)
}

// TestBatchedSessionCoalescesAndStaysCorrect drives a full matrix product
// through a batching client: the two async uploads, the launch, and the
// event record must ride one wire frame, closed by the event
// synchronization that follows them, and the numerical result must be
// bit-identical to the oracle.
func TestBatchedSessionCoalescesAndStaysCorrect(t *testing.T) {
	client, srv, cliEnd, cleanup := startBatchSession(t, netsim.GigaE(), nil, WithBatching(0, 0))
	defer cleanup()

	before := cliEnd.Stats().MessagesSent
	got, want := sgemmBatched(t, client, 1, client.EventSynchronize)
	if !bytes.Equal(got, want) {
		t.Fatal("batched result differs from the CPU oracle")
	}
	cs := client.Stats()
	if cs.OpsCoalesced != 5 || cs.BatchesFlushed != 1 {
		t.Fatalf("client batching stats %+v, want 5 coalesced in 1 flush", cs)
	}
	ss := srv.Stats()
	if ss.BatchFrames != 1 || ss.BatchedOps != 5 || ss.BatchReplays != 0 {
		t.Fatalf("server batching stats %+v", ss)
	}
	// 16 synchronous calls would send 16 requests; coalescing 4 of them
	// and the synchronization after them into one frame leaves 12 — 4
	// round trips saved.
	sent := cliEnd.Stats().MessagesSent - before
	if wantSent := int64(12); sent != wantSent {
		t.Fatalf("batched session sent %d messages, want %d", sent, wantSent)
	}
}

// TestUnbatchedSessionUnchanged pins the default path: without WithBatching
// the same workload batches nothing and touches no batch counter.
func TestUnbatchedSessionUnchanged(t *testing.T) {
	client, srv, _, cleanup := startBatchSession(t, netsim.GigaE(), nil)
	defer cleanup()

	got, want := sgemmBatched(t, client, 1, client.EventSynchronize)
	if !bytes.Equal(got, want) {
		t.Fatal("unbatched result differs from the CPU oracle")
	}
	cs := client.Stats()
	if cs.OpsCoalesced != 0 || cs.BatchesFlushed != 0 || cs.CacheHits != 0 || cs.CacheMisses != 0 {
		t.Fatalf("unbatched client touched batch/cache counters: %+v", cs)
	}
	if ss := srv.Stats(); ss.BatchFrames != 0 || ss.BatchedOps != 0 {
		t.Fatalf("unbatched server executed batches: %+v", ss)
	}
}

// TestBatchDeferredErrorSurfacesAtSyncPoint checks the CUDA async-error
// model: a bad batched launch returns nil at call time, fails the next
// synchronizing call, and is consumed by it.
func TestBatchDeferredErrorSurfacesAtSyncPoint(t *testing.T) {
	client, _, _, cleanup := startBatchSession(t, netsim.GigaE(), nil, WithBatching(0, 0))
	defer cleanup()

	if err := client.LaunchAsync("no-such-kernel", cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0, nil, 0); err != nil {
		t.Fatalf("batched launch reported synchronously: %v", err)
	}
	if err := client.DeviceSynchronize(); !errors.Is(err, cudart.ErrorLaunchFailure) {
		t.Fatalf("sync after bad batched launch: %v, want launch failure", err)
	}
	// The error was consumed; the session stays usable.
	if err := client.DeviceSynchronize(); err != nil {
		t.Fatalf("second sync still failing: %v", err)
	}
}

// TestBatchFlushThresholds checks the size-triggered flush: with a two-op
// budget, the third coalesced call cannot ride the first frame; it rides
// the second, which the synchronization closes.
func TestBatchFlushThresholds(t *testing.T) {
	client, srv, _, cleanup := startBatchSession(t, netsim.GigaE(), nil, WithBatching(2, 0))
	defer cleanup()

	event, err := client.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := client.EventRecord(event, 0); err != nil {
			t.Fatal(err)
		}
	}
	cs := client.Stats()
	if cs.BatchesFlushed != 1 || cs.OpsCoalesced != 3 {
		t.Fatalf("stats after third record %+v, want 1 threshold flush", cs)
	}
	if err := client.EventSynchronize(event); err != nil {
		t.Fatal(err)
	}
	if cs := client.Stats(); cs.BatchesFlushed != 2 || cs.OpsCoalesced != 4 {
		t.Fatalf("stats after sync %+v, want the remainder flushed with the sync", cs)
	}
	if ss := srv.Stats(); ss.BatchFrames != 2 || ss.BatchedOps != 4 || ss.Requests != 3 {
		t.Fatalf("server stats %+v", ss)
	}
	if err := client.EventDestroy(event); err != nil {
		t.Fatal(err)
	}
}

// TestBatchByteThresholdFlush checks the byte-budget trigger with a budget
// one async copy always exceeds.
func TestBatchByteThresholdFlush(t *testing.T) {
	client, _, _, cleanup := startBatchSession(t, netsim.GigaE(), nil, WithBatching(0, 64))
	defer cleanup()

	ptr, err := client.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := client.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDeviceAsync(ptr, make([]byte, 256), stream); err != nil {
		t.Fatal(err)
	}
	if cs := client.Stats(); cs.BatchesFlushed != 1 {
		t.Fatalf("stats %+v, want immediate byte-threshold flush", cs)
	}
	if err := client.StreamSynchronize(stream); err != nil {
		t.Fatal(err)
	}
	if err := client.StreamDestroy(stream); err != nil {
		t.Fatal(err)
	}
	if err := client.Free(ptr); err != nil {
		t.Fatal(err)
	}
}

// TestChaosReconnectMidBatch injects a connection reset into the batch
// exchange itself — a frame the event synchronization closes: the server
// has executed the frame, synchronization included, but the response is
// lost. The client must reattach and re-send the identical frame, and the
// server must answer it from the replay state without executing anything
// twice — the result stays bit-exact and the frame-executed counter stays
// at one.
func TestChaosReconnectMidBatch(t *testing.T) {
	srv, addr, cleanup := startTCPServer(t)
	defer cleanup()

	// Ops 4-9: three mallocs; 10/11: stream create; 12/13: event create;
	// the four coalesced calls touch no wire; op 14: send of the batch the
	// event synchronization closes; op 15: its recv — inject the reset
	// there, after the server executed.
	plan := faults.Script(
		faults.Injection{Op: opsOpenDurable + 11, Dir: faults.DirRecv, Decision: faults.Decision{Kind: faults.KindReset}},
	)
	dial := faultyDialer(addr, plan)
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM),
		WithBatching(0, 0), WithRetry(time.Second), WithReconnect(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	got, want := sgemmBatched(t, client, 7, client.EventSynchronize)
	if plan.Injected() == 0 {
		t.Fatal("scripted fault never fired; op indices drifted")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result after mid-batch reconnect differs from the CPU oracle")
	}
	cs := client.Stats()
	if cs.ConnFaults != 1 || cs.Reconnects != 1 || cs.Recovered != 1 {
		t.Fatalf("client stats %+v", cs)
	}
	ss := srv.Stats()
	if ss.BatchFrames != 1 || ss.BatchReplays != 1 || ss.BatchedOps != 5 {
		t.Fatalf("server stats %+v: replayed batch must not re-execute", ss)
	}
	if ss.Reattaches != 1 {
		t.Fatalf("server stats %+v, want one reattach", ss)
	}
}

// TestChaosLostReplyOfFrameClosedByQuery loses the reply of a frame that a
// cudaEventQuery closes, on a device whose clock only its own work moves:
// the query answered not ready — the frame's launch is still running — and
// that answer is one of the codes the server remembers. The re-sent frame is
// answered from them: the query reads not ready again, nothing executes
// twice, and the synchronization after it finds the result bit-exact.
func TestChaosLostReplyOfFrameClosedByQuery(t *testing.T) {
	lb := startLoopback(t, nil)
	defer lb.stop()
	// The op indices of TestChaosReconnectMidBatch: op 15 is the recv of
	// the frame the query closes.
	plan := faults.Script(
		faults.Injection{Op: opsOpenDurable + 11, Dir: faults.DirRecv, Decision: faults.Decision{Kind: faults.KindReset}},
	)
	dial := lb.dial(plan)
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM),
		WithBatching(0, 0), WithRetry(time.Second), WithReconnect(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	got, want := sgemmBatched(t, client, 11, func(e cudart.Event) error {
		if err := client.EventQuery(e); !errors.Is(err, cudart.ErrorNotReady) {
			t.Fatalf("query closing the frame answered %v, want not ready", err)
		}
		return client.EventSynchronize(e)
	})
	if plan.Injected() == 0 {
		t.Fatal("scripted fault never fired; op indices drifted")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result after losing a query-closed frame's reply differs from the CPU oracle")
	}
	if cs := client.Stats(); cs.ConnFaults != 1 || cs.Reconnects != 1 || cs.Recovered != 1 || cs.OpsCoalesced != 5 {
		t.Fatalf("client stats %+v", cs)
	}
	if ss := lb.srv.Stats(); ss.BatchFrames != 1 || ss.BatchReplays != 1 || ss.BatchedOps != 5 || ss.Reattaches != 1 {
		t.Fatalf("server stats %+v: replayed frame must not re-execute", ss)
	}
}

// TestChaosResetBeforeBatchSend loses the connection before the batch
// frame reaches the server: no replay state exists, so the retry must
// execute the batch for the first time after reattaching.
func TestChaosResetBeforeBatchSend(t *testing.T) {
	srv, addr, cleanup := startTCPServer(t)
	defer cleanup()

	plan := faults.Script(
		faults.Injection{Op: opsOpenDurable + 10, Dir: faults.DirSend, Decision: faults.Decision{Kind: faults.KindReset}},
	)
	dial := faultyDialer(addr, plan)
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM),
		WithBatching(0, 0), WithRetry(time.Second), WithReconnect(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	got, want := sgemmBatched(t, client, 9, client.EventSynchronize)
	if plan.Injected() == 0 {
		t.Fatal("scripted fault never fired; op indices drifted")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result after pre-send reset differs from the CPU oracle")
	}
	if ss := srv.Stats(); ss.BatchFrames != 1 || ss.BatchReplays != 0 {
		t.Fatalf("server stats %+v: lost frame must execute exactly once", ss)
	}
}
