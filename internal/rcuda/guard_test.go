package rcuda

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// startHardenedServer runs a daemon with the given hardening options on a
// loopback listener, returning the device for occupancy assertions.
func startHardenedServer(t *testing.T, opts ...ServerOption) (*Server, *gpu.Device, string, func()) {
	t.Helper()
	dev := gpu.New(gpu.Config{Clock: vclock.NewWall()})
	srv := NewServer(dev, opts...)
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
	return srv, dev, ln.Addr().String(), cleanup
}

// openPlain dials addr and opens a non-durable client.
func openPlain(t *testing.T, addr string) (*Client, error) {
	t.Helper()
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM))
	if err != nil {
		_ = conn.Close()
	}
	return client, err
}

// openDurable dials addr and opens a retrying, reconnecting client,
// returning the raw initial connection so tests can kill it abruptly.
func openDurable(t *testing.T, addr string, opts ...ClientOption) (*Client, transport.Conn) {
	t.Helper()
	dial := func() (transport.Conn, error) { return transport.DialTCP(addr) }
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]ClientOption{WithRetry(time.Second), WithReconnect(dial)}, opts...)
	client, err := Open(conn, moduleImage(t, calib.MM), opts...)
	if err != nil {
		t.Fatalf("open durable: %v", err)
	}
	return client, conn
}

// waitFor polls cond until it holds or the deadline trips.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdmissionRejectsBeyondMaxSessions checks the session cap: the excess
// handshake gets the typed busy refusal, and a freed slot readmits.
func TestAdmissionRejectsBeyondMaxSessions(t *testing.T) {
	srv, _, addr, cleanup := startHardenedServer(t, WithMaxSessions(1))
	defer cleanup()

	first, err := openPlain(t, addr)
	if err != nil {
		t.Fatalf("first open: %v", err)
	}
	if _, err := openPlain(t, addr); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("second open got %v, want ErrServerBusy", err)
	}
	if st := srv.Stats(); st.RejectedSessions != 1 {
		t.Fatalf("RejectedSessions = %d, want 1", st.RejectedSessions)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	// The finalized session released its slot; admission works again.
	waitFor(t, "slot release", 2*time.Second, func() bool {
		third, err := openPlain(t, addr)
		if err != nil {
			return false
		}
		_ = third.Close()
		return true
	})
}

// TestAdmissionQueueAdmitsWhenSlotFrees checks the bounded FIFO: a
// handshake beyond the cap waits (instead of being rejected) and picks up
// the slot the finishing session frees.
func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	srv, _, addr, cleanup := startHardenedServer(t,
		WithMaxSessions(1), WithAdmissionQueue(1, 5*time.Second))
	defer cleanup()

	first, err := openPlain(t, addr)
	if err != nil {
		t.Fatalf("first open: %v", err)
	}
	opened := make(chan error, 1)
	go func() {
		second, err := openPlain(t, addr)
		if err == nil {
			_ = second.Close()
		}
		opened <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the second handshake queue
	select {
	case err := <-opened:
		t.Fatalf("second open finished while the slot was held: %v", err)
	default:
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-opened:
		if err != nil {
			t.Fatalf("queued open: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("queued handshake never admitted after the slot freed")
	}
	if st := srv.Stats(); st.RejectedSessions != 0 {
		t.Fatalf("RejectedSessions = %d, want 0 (the wait must not count)", st.RejectedSessions)
	}
}

// TestMaxConnsRejectsImmediately checks the hard connection cap.
func TestMaxConnsRejectsImmediately(t *testing.T) {
	srv, _, addr, cleanup := startHardenedServer(t, WithMaxConns(1))
	defer cleanup()

	first, err := openPlain(t, addr)
	if err != nil {
		t.Fatalf("first open: %v", err)
	}
	if _, err := openPlain(t, addr); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("over-cap open got %v, want ErrServerBusy", err)
	}
	if st := srv.Stats(); st.RejectedConns != 1 {
		t.Fatalf("RejectedConns = %d, want 1", st.RejectedConns)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "conn slot release", 2*time.Second, func() bool {
		c, err := openPlain(t, addr)
		if err != nil {
			return false
		}
		_ = c.Close()
		return true
	})
}

// TestSessionMemoryQuotaEdges exercises the quota boundary: an allocation
// landing exactly at the limit succeeds, one byte more is denied with
// cudaErrorMemoryAllocation, and freeing restores headroom.
func TestSessionMemoryQuotaEdges(t *testing.T) {
	const limit = 4096 // a multiple of the 256-byte allocator granularity
	srv, _, addr, cleanup := startHardenedServer(t, WithSessionMemoryLimit(limit))
	defer cleanup()
	client, err := openPlain(t, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	full, err := client.Malloc(limit) // exactly at the limit
	if err != nil {
		t.Fatalf("alloc at exact limit: %v", err)
	}
	if _, err := client.Malloc(1); !errors.Is(err, cudart.ErrorMemoryAllocation) {
		t.Fatalf("alloc beyond limit got %v, want ErrorMemoryAllocation", err)
	}
	if st := srv.Stats(); st.QuotaDenials != 1 {
		t.Fatalf("QuotaDenials = %d, want 1", st.QuotaDenials)
	}
	// Free-then-realloc: the accounting must observe the free.
	if err := client.Free(full); err != nil {
		t.Fatalf("free: %v", err)
	}
	again, err := client.Malloc(limit)
	if err != nil {
		t.Fatalf("realloc after free: %v", err)
	}
	// The denied malloc must not have corrupted the session: the region is
	// fully usable.
	pattern := bytes.Repeat([]byte{0xa5}, limit)
	if err := client.MemcpyToDevice(again, pattern); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := make([]byte, limit)
	if err := client.MemcpyToHost(out, again); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(out, pattern) {
		t.Fatal("read back diverged after a quota denial")
	}
}

// TestSessionQuotaSpansDevices checks the memory quota is charged across
// every device the session touches, not per context.
func TestSessionQuotaSpansDevices(t *testing.T) {
	clk := vclock.NewWall()
	second := gpu.New(gpu.Config{Clock: clk})
	dev := gpu.New(gpu.Config{Clock: clk})
	srv := NewServer(dev, WithDevices(second), WithSessionMemoryLimit(1024))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	client, err := openPlain(t, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Malloc(512); err != nil {
		t.Fatalf("alloc on device 0: %v", err)
	}
	if err := client.SetDevice(1); err != nil {
		t.Fatalf("set device: %v", err)
	}
	onSecond, err := client.Malloc(512) // 1024 total: exactly at the limit
	if err != nil {
		t.Fatalf("alloc on device 1: %v", err)
	}
	if _, err := client.Malloc(256); !errors.Is(err, cudart.ErrorMemoryAllocation) {
		t.Fatalf("cross-device alloc beyond limit got %v, want ErrorMemoryAllocation", err)
	}
	if err := client.Free(onSecond); err != nil {
		t.Fatalf("free on device 1: %v", err)
	}
	if _, err := client.Malloc(256); err != nil {
		t.Fatalf("alloc after cross-device free: %v", err)
	}
}

// TestMaxAllocsPerSession checks the allocation-count quota.
func TestMaxAllocsPerSession(t *testing.T) {
	srv, _, addr, cleanup := startHardenedServer(t, WithMaxAllocsPerSession(3))
	defer cleanup()
	client, err := openPlain(t, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ptrs := make([]cudart.DevicePtr, 0, 3)
	for i := 0; i < 3; i++ {
		p, err := client.Malloc(256)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		ptrs = append(ptrs, p)
	}
	if _, err := client.Malloc(256); !errors.Is(err, cudart.ErrorMemoryAllocation) {
		t.Fatalf("4th alloc got %v, want ErrorMemoryAllocation", err)
	}
	if st := srv.Stats(); st.QuotaDenials != 1 {
		t.Fatalf("QuotaDenials = %d, want 1", st.QuotaDenials)
	}
	if err := client.Free(ptrs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Malloc(256); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

// TestChunkedStreamBeyondRegionKeepsSessionAlive drives a chunked transfer
// larger than its destination: the stream's Begin is refused up front (the
// quota-bounded allocation is the only region the client holds) and the
// session survives to run in-bounds transfers bit-exactly.
func TestChunkedStreamBeyondRegionKeepsSessionAlive(t *testing.T) {
	_, _, addr, cleanup := startHardenedServer(t, WithSessionMemoryLimit(1024))
	defer cleanup()
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM), WithChunkedTransfers(1024, 512))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	region, err := client.Malloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	// 2048 bytes into a 1024-byte region: crosses the chunk threshold, so
	// it runs the streamed path, whose Begin must be refused.
	err = client.MemcpyToDevice(region, make([]byte, 2048))
	if err == nil {
		t.Fatal("oversized chunked write succeeded")
	}
	if errors.Is(err, ErrSessionLost) {
		t.Fatalf("oversized chunked write killed the session: %v", err)
	}
	pattern := bytes.Repeat([]byte{0x5a}, 1024)
	if err := client.MemcpyToDevice(region, pattern); err != nil {
		t.Fatalf("in-bounds chunked write after refusal: %v", err)
	}
	out := make([]byte, 1024)
	if err := client.MemcpyToHost(out, region); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(out, pattern) {
		t.Fatal("read back diverged after stream refusal")
	}
}

// TestWatchdogParksStalledSession checks the request deadline: a client
// that goes silent mid-session has its connection killed within the
// deadline, its durable session parked, and its state intact across the
// reattach its next call performs.
func TestWatchdogParksStalledSession(t *testing.T) {
	srv, _, addr, cleanup := startHardenedServer(t, WithRequestDeadline(60*time.Millisecond))
	defer cleanup()
	client, _ := openDurable(t, addr)
	defer client.Close()

	pattern := bytes.Repeat([]byte{0xc3}, 512)
	ptr, err := client.Malloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDevice(ptr, pattern); err != nil {
		t.Fatal(err)
	}

	// Go silent past the deadline: the watchdog kills the connection and
	// parks the session.
	waitFor(t, "watchdog kill", 2*time.Second, func() bool {
		return srv.Stats().WatchdogKills >= 1
	})
	if st := srv.Stats(); st.SessionsParked < 1 {
		t.Fatalf("stalled durable session was not parked: %+v", st)
	}

	// The next call reconnects, reattaches, and sees the same bytes.
	out := make([]byte, 512)
	if err := client.MemcpyToHost(out, ptr); err != nil {
		t.Fatalf("read after watchdog kill: %v", err)
	}
	if !bytes.Equal(out, pattern) {
		t.Fatal("device state lost across watchdog park/reattach")
	}
	if st := srv.Stats(); st.Reattaches < 1 {
		t.Fatalf("expected a reattach after the watchdog kill: %+v", st)
	}
}

// TestParkedSessionTTLEvictsAndReclaims checks the garbage collector: an
// abandoned durable session is destroyed after its TTL, its device memory
// fully reclaimed, and a late reattach gets the typed eviction error.
func TestParkedSessionTTLEvictsAndReclaims(t *testing.T) {
	srv, dev, addr, cleanup := startHardenedServer(t, WithParkedSessionTTL(50*time.Millisecond))
	defer cleanup()
	client, rawConn := openDurable(t, addr)

	if _, err := client.Malloc(4096); err != nil {
		t.Fatal(err)
	}
	if dev.MemoryInUse() == 0 {
		t.Fatal("allocation not visible on the device")
	}
	// Abandon: kill the connection without finalizing. The session parks,
	// then the TTL GC destroys it.
	_ = rawConn.Close()
	waitFor(t, "TTL eviction", 3*time.Second, func() bool {
		return srv.Stats().Evictions >= 1
	})
	if got := dev.MemoryInUse(); got != 0 {
		t.Fatalf("evicted session left %d bytes allocated, want 0", got)
	}

	// A reattach attempt after eviction must surface the typed error and
	// latch the session as lost.
	err := client.DeviceSynchronize()
	if !errors.Is(err, ErrSessionEvicted) {
		t.Fatalf("post-eviction call got %v, want ErrSessionEvicted", err)
	}
	if !errors.Is(err, ErrSessionLost) {
		t.Fatalf("eviction must latch ErrSessionLost, got %v", err)
	}
	_ = client.Close()
}

// TestDrainGracefulThenForced checks both drain modes: with no sessions in
// flight Drain returns nil immediately; with a silent client occupying a
// handler it force-closes the connection at the context deadline and still
// settles promptly.
func TestDrainGracefulThenForced(t *testing.T) {
	before := runtime.NumGoroutine()

	// Graceful: the only client finalizes before the drain.
	srv1, _, addr1, _ := startHardenedServer(t)
	c1, err := openPlain(t, addr1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if err := srv1.Drain(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	cancel()

	// Forced: a client holds its connection open without finalizing.
	srv2, _, addr2, _ := startHardenedServer(t)
	c2, err := openPlain(t, addr2)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel2()
	start := time.Now()
	err = srv2.Drain(ctx2)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("forced drain took %v, want prompt return after the deadline", took)
	}
	if st := srv2.Stats(); st.ForcedCloses < 1 {
		t.Fatalf("ForcedCloses = %d, want >= 1", st.ForcedCloses)
	}
	_ = c2.Close()

	// Close after Drain stays idempotent, and nothing leaked.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "goroutines to settle", 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}

// TestCloseRacingActiveSession closes the server while a client is mid
// request stream: Close must return within its grace period, every parked
// or active session's memory must be reclaimed exactly once, and the
// client must observe a connection error rather than a hang.
func TestCloseRacingActiveSession(t *testing.T) {
	dev := gpu.New(gpu.Config{Clock: vclock.NewWall()})
	srv := NewServer(dev, WithCloseGrace(150*time.Millisecond))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	conn, err := transport.DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM))
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := client.Malloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		buf := make([]byte, 2048)
		for i := 0; ; i++ {
			if err := client.MemcpyToDevice(ptr, buf); err != nil {
				return // the close tore the connection down, as expected
			}
		}
	}()

	time.Sleep(30 * time.Millisecond) // let the client get into its stride
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close racing active session: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("close took %v, want bounded by the grace period", took)
	}
	select {
	case <-clientDone:
	case <-time.After(2 * time.Second):
		t.Fatal("client still running after server close")
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if got := dev.MemoryInUse(); got != 0 {
		t.Fatalf("server close left %d device bytes allocated", got)
	}
	// Second close is an idempotent no-op: the already-destroyed session
	// must not be destroyed again.
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestStatsSnapshotGauges checks the operator snapshot reports live
// sessions, parked sessions, and device occupancy.
func TestStatsSnapshotGauges(t *testing.T) {
	srv, _, addr, cleanup := startHardenedServer(t)
	defer cleanup()
	client, rawConn := openDurable(t, addr)
	defer client.Close()
	if _, err := client.Malloc(1000); err != nil {
		t.Fatal(err)
	}
	snap := srv.StatsSnapshot()
	if snap.SessionsLive != 1 {
		t.Fatalf("SessionsLive = %d, want 1", snap.SessionsLive)
	}
	if len(snap.Devices) != 1 || snap.Devices[0].Allocations != 1 {
		t.Fatalf("device usage %+v, want one allocation on one device", snap.Devices)
	}
	if snap.Devices[0].BytesInUse < 1000 {
		t.Fatalf("BytesInUse = %d, want >= 1000", snap.Devices[0].BytesInUse)
	}

	// Park the session and watch the gauge flip.
	_ = rawConn.Close()
	waitFor(t, "session to park", 2*time.Second, func() bool {
		snap := srv.StatsSnapshot()
		return snap.SessionsParkedNow == 1 && snap.SessionsLive == 0
	})
}

// TestHardenedChaosMultiClient is the end-to-end hardening scenario: a
// hostile client hammers the quota, stalls mid-session, and abandons its
// allocations, while a well-behaved client runs the paper's MM and FFT
// case studies on the same daemon. The protection layer must throttle and
// evict the hostile client, reclaim 100% of its memory, leave the good
// client's results bit-exact with a chaos-free golden run, and shut down
// with zero goroutine leaks.
func TestHardenedChaosMultiClient(t *testing.T) {
	before := runtime.NumGoroutine()
	mm := moduleImage(t, calib.MM)
	fftMod := moduleImage(t, calib.FFT)

	// Golden results from an unharmed, unlimited server.
	_, _, goldenAddr, goldenCleanup := startHardenedServer(t)
	wantMM := golden(t, goldenAddr, mm, runMMWorkload, 7)
	wantFFT := golden(t, goldenAddr, fftMod, runFFTWorkload, 8)
	goldenCleanup()

	srv, dev, addr, cleanup := startHardenedServer(t,
		WithSessionMemoryLimit(1<<20),
		WithMaxAllocsPerSession(64),
		WithRequestDeadline(100*time.Millisecond),
		WithParkedSessionTTL(80*time.Millisecond),
	)

	// Hostile client 1: allocate until the quota throttles it, then
	// abandon the connection with everything still allocated.
	hoarderDone := make(chan error, 1)
	go func() {
		hoarder, raw := openDurable(t, addr)
		denied := false
		for i := 0; i < 16; i++ {
			if _, err := hoarder.Malloc(256 << 10); err != nil {
				if !errors.Is(err, cudart.ErrorMemoryAllocation) {
					hoarderDone <- err
					return
				}
				denied = true
				break
			}
		}
		if !denied {
			hoarderDone <- errors.New("hoarder was never throttled by the quota")
			return
		}
		_ = raw.Close() // abandon without finalizing
		hoarderDone <- nil
	}()

	// Hostile client 2: go silent mid-session so the watchdog kills it,
	// then never come back — the parked session is the GC's problem.
	stallerDone := make(chan error, 1)
	go func() {
		staller, raw := openDurable(t, addr)
		if _, err := staller.Malloc(128 << 10); err != nil {
			stallerDone <- err
			return
		}
		time.Sleep(250 * time.Millisecond) // well past the request deadline
		// The conn must stay reachable through the sleep: if the GC
		// finalizes the abandoned socket first, the server sees a clean
		// EOF and parks the session before the watchdog can kill it.
		runtime.KeepAlive(raw)
		stallerDone <- nil
	}()

	// The well-behaved clients share the daemon with both hostiles. Each
	// finalizes promptly: an idle connection past the request deadline is
	// fair game for the watchdog, well-behaved or not.
	goodMM := openChaosClient(t, addr, nil, mm)
	gotMM := runMMWorkload(t, goodMM, 7)
	if err := goodMM.Close(); err != nil {
		t.Fatalf("good MM client close: %v", err)
	}
	goodFFT := openChaosClient(t, addr, nil, fftMod)
	gotFFT := runFFTWorkload(t, goodFFT, 8)
	if err := goodFFT.Close(); err != nil {
		t.Fatalf("good FFT client close: %v", err)
	}
	if !bytes.Equal(gotMM, wantMM) {
		t.Fatal("MM result diverged under hostile neighbors")
	}
	if !bytes.Equal(gotFFT, wantFFT) {
		t.Fatal("FFT result diverged under hostile neighbors")
	}
	for _, ch := range []chan error{hoarderDone, stallerDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("hostile client: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("hostile client never finished")
		}
	}

	// Both hostile sessions must be evicted and every hostile byte
	// reclaimed; the good client finalized cleanly, so the device drains
	// to zero.
	waitFor(t, "hostile sessions to be evicted", 5*time.Second, func() bool {
		return srv.Stats().Evictions >= 2
	})
	waitFor(t, "hostile memory reclamation", 5*time.Second, func() bool {
		return dev.MemoryInUse() == 0
	})

	st := srv.Stats()
	if st.QuotaDenials < 1 {
		t.Fatalf("QuotaDenials = %d, want >= 1", st.QuotaDenials)
	}
	if st.WatchdogKills < 1 {
		t.Fatalf("WatchdogKills = %d, want >= 1", st.WatchdogKills)
	}
	t.Logf("hardening chaos: %+v", st)

	cleanup()
	waitFor(t, "goroutines to settle", 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
}
