package rcuda

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/raceflag"
	"rcuda/internal/sched"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// Tests of the landed data path: bulk payloads read from the connection
// straight into device memory (server) or the application's buffer
// (client). Sizes here are above transport.LandFloor unless a test says
// otherwise, so every bulk frame is one the transport offers to its Lander.

// loopback is one client session over a real loopback socket whose server
// end the test holds, to read its transport counters. plan, when not nil,
// is consulted by the server end of every connection the listener accepts.
type loopback struct {
	srv     *Server
	dev     *gpu.Device
	addr    string
	mu      sync.Mutex
	srvConn []transport.Conn
	stop    func()
}

func (lb *loopback) serverConn(i int) transport.Conn {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.srvConn[i]
}

func startLoopback(t *testing.T, plan *faults.Plan, opts ...ServerOption) *loopback {
	t.Helper()
	lb := &loopback{dev: gpu.New(gpu.Config{Clock: vclock.NewSim()})}
	lb.srv = NewServer(lb.dev, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lb.addr = ln.Addr().String()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			var conn transport.Conn = transport.NewTCPConn(c)
			if plan != nil {
				conn = transport.NewFaultyConn(conn, plan)
			}
			lb.mu.Lock()
			lb.srvConn = append(lb.srvConn, conn)
			lb.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = lb.srv.ServeConn(conn)
				_ = conn.Close()
			}()
		}
	}()
	lb.stop = func() {
		_ = ln.Close()
		if err := lb.srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		wg.Wait()
	}
	return lb
}

func (lb *loopback) dial(plan *faults.Plan) func() (transport.Conn, error) {
	return func() (transport.Conn, error) {
		conn, err := transport.DialTCP(lb.addr)
		if err != nil || plan == nil {
			return conn, err
		}
		return transport.NewFaultyConn(conn, plan), nil
	}
}

// openClose runs one plain session from dial to Close.
func (lb *loopback) openClose(t *testing.T, module []byte) {
	t.Helper()
	conn, err := transport.DialTCP(lb.addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(conn, module)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i>>8) ^ byte(i)*7 ^ seed
	}
	return b
}

// --- isolation over the real server -----------------------------------------------

// TestSessionsOnASharedDeviceCannotReachEachOther runs two tenants on one
// scheduled device. First-fit addresses are deterministic, so the intruder
// knows the victim's pointer; every way of using it must fail with
// cudaErrorInvalidDevicePointer — the code a local runtime gives — and
// leave the victim's bytes alone.
func TestSessionsOnASharedDeviceCannotReachEachOther(t *testing.T) {
	lb := startLoopback(t, nil, WithScheduler(sched.WFQ))
	defer lb.stop()
	module := moduleImage(t, calib.MM)
	open := func(opts ...ClientOption) *Client {
		conn, err := lb.dial(nil)()
		if err != nil {
			t.Fatal(err)
		}
		c, err := Open(conn, module, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	victim, intruder := open(), open()
	defer victim.Close()
	defer intruder.Close()

	const n = 128 << 10
	secret := pattern(n, 0x5c)
	theirs, err := victim.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.MemcpyToDevice(theirs, secret); err != nil {
		t.Fatal(err)
	}
	mine, err := intruder.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	chunkedIntruder := open(WithChunkedTransfers(n, n/2))
	defer chunkedIntruder.Close()
	small := make([]byte, 64)
	bulk := make([]byte, n)
	attempts := []struct {
		name string
		call func() error
	}{
		{"read, small", func() error { return intruder.MemcpyToHost(small, theirs) }},
		{"read, bulk", func() error { return intruder.MemcpyToHost(bulk, theirs) }},
		{"read, chunked", func() error { return chunkedIntruder.MemcpyToHost(bulk, theirs) }},
		{"write, small", func() error { return intruder.MemcpyToDevice(theirs, small) }},
		{"write, bulk (landing offered)", func() error { return intruder.MemcpyToDevice(theirs, bulk) }},
		{"write, chunked", func() error { return chunkedIntruder.MemcpyToDevice(theirs, bulk) }},
		{"write, interior pointer", func() error { return intruder.MemcpyToDevice(theirs+4096, bulk[:n/2]) }},
		{"memset", func() error { return intruder.Memset(theirs, 0, n) }},
		{"D2D source", func() error { return intruder.MemcpyDeviceToDevice(mine, theirs, n) }},
		{"D2D destination", func() error { return intruder.MemcpyDeviceToDevice(theirs, mine, n) }},
		{"kernel operand", func() error {
			return intruder.Launch(kernels.SgemmKernel, cudart.Dim3{X: 1, Y: 1}, cudart.Dim3{X: 16, Y: 16}, 0,
				gpu.PackParams(uint32(mine), uint32(mine), uint32(theirs), 16))
		}},
	}
	for _, a := range attempts {
		if err := a.call(); !errors.Is(err, cudart.ErrorInvalidDevicePointer) {
			t.Errorf("%s: %v, want cudaErrorInvalidDevicePointer", a.name, err)
		}
	}
	for _, b := range [][]byte{small, bulk} {
		if firstDirty(b) >= 0 {
			t.Error("a refused read delivered bytes")
		}
	}
	got := make([]byte, n)
	if err := victim.MemcpyToHost(got, theirs); err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("victim's allocation changed under the attempts (err %v)", err)
	}
	// The same misuse between two local runtimes on one device gives the
	// same code.
	shared := gpu.New(gpu.Config{Clock: vclock.NewSim()})
	localVictim, err := cudart.OpenLocal(shared, nil, cudart.Preinitialized())
	if err != nil {
		t.Fatal(err)
	}
	localIntruder, err := cudart.OpenLocal(shared, nil, cudart.Preinitialized())
	if err != nil {
		t.Fatal(err)
	}
	localTheirs, err := localVictim.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := localIntruder.MemcpyToDevice(localTheirs, small); !errors.Is(err, cudart.ErrorInvalidDevicePointer) {
		t.Errorf("local runtime: %v, want cudaErrorInvalidDevicePointer", err)
	}
}

// --- observer byte counts -----------------------------------------------------------

// TestObserverCountsLandedBytes: the Table I sizes an Observer sees
// (Figure 2's input) are the frame sizes, wherever the transport put the
// bytes — identical on the socket, on the simulated pipe, and through a
// wrapper that forwards no landing at all.
func TestObserverCountsLandedBytes(t *testing.T) {
	const n, chunk = 256 << 10, 64 << 10
	type counts struct{ h2dSent, h2dRecv, d2hSent, d2hRecv int }
	run := func(conn transport.Conn, opts ...ClientOption) counts {
		obs := &recordingObserver{}
		client, err := Open(conn, moduleImage(t, calib.MM), append(opts, WithObserver(obs))...)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		ptr, err := client.Malloc(n)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := pattern(n, 1), make([]byte, n)
		var c counts
		obs.sent, obs.recv = 0, 0
		if err := client.MemcpyToDevice(ptr, src); err != nil {
			t.Fatal(err)
		}
		c.h2dSent, c.h2dRecv = obs.sent, obs.recv
		obs.sent, obs.recv = 0, 0
		if err := client.MemcpyToHost(dst, ptr); err != nil {
			t.Fatal(err)
		}
		c.d2hSent, c.d2hRecv = obs.sent, obs.recv
		if !bytes.Equal(src, dst) {
			t.Fatal("round trip diverged")
		}
		return c
	}
	single := counts{20 + n, 4, 20, n + 4}
	chunked := counts{20 + 4*(12+chunk) + 8, 4 + 4, 20, 4 + 4*(12+chunk) + 4}
	for _, mode := range []struct {
		name string
		opts []ClientOption
		want counts
	}{
		{"single frame", nil, single},
		{"chunked", []ClientOption{WithChunkedTransfers(n, chunk)}, chunked},
	} {
		lb := startLoopback(t, nil)
		tcp, err := lb.dial(nil)()
		if err != nil {
			t.Fatal(err)
		}
		if got := run(tcp, mode.opts...); got != mode.want {
			t.Errorf("%s over TCP: %+v, want %+v", mode.name, got, mode.want)
		}
		whole, err := lb.dial(nil)()
		if err != nil {
			t.Fatal(err)
		}
		if got := run(connOnly{whole}, mode.opts...); got != mode.want {
			t.Errorf("%s through a wrapper without landing: %+v, want %+v", mode.name, got, mode.want)
		}
		lb.stop()

		d, _, _ := simDaemon(netsim.IB40G())
		pipe, _ := d.Dial()
		if got := run(pipe, mode.opts...); got != mode.want {
			t.Errorf("%s over the pipe: %+v, want %+v", mode.name, got, mode.want)
		}
		if err := d.Wait(); err != nil {
			t.Errorf("%s over the pipe: server: %v", mode.name, err)
		}
	}
}

// connOnly hides every optional capability of a connection, landing
// included: what a wrapper written before landing existed looks like.
type connOnly struct{ transport.Conn }

// --- faults mid-landing ---------------------------------------------------------------

// Operation indices of a durable session's dialogue, counted per end from
// the connection's first message (init, hello and one cudaMalloc are ops
// 0-5 on both ends). Single frame: the H2D exchange is ops 6-7, the D2H
// exchange 8-9. Chunked, four chunks: Begin/ack 6-7, chunks 8-11, End and
// its status 12-13; then Begin/ack 14-15, chunks 16-19, End status 20.
const (
	opH2DFrame   = 6
	opD2HReply   = 9
	opH2DChunk1  = 9
	opD2HChunk1  = 17
	landTestSize = 256 << 10
	landTestChnk = 64 << 10
)

type landingFault struct {
	name     string
	chunked  bool
	onServer bool // which end's plan carries the injection
	inj      faults.Injection
}

// async reports a case that reads back with MemcpyToHostAsync, which lands
// like MemcpyToHost but is not idempotent: a fault fails the call even with
// retry on, and the session heals at the next.
func (lf landingFault) async() bool { return strings.HasPrefix(lf.name, "async ") }

func cut(op int, dir faults.Dir, kind faults.Kind, keep int) faults.Injection {
	return faults.Injection{Op: op, Dir: dir, Decision: faults.Decision{Kind: kind, KeepBytes: keep, Delay: 2 * time.Millisecond}}
}

var landingFaults = []landingFault{
	// Host to device, one frame: the server is landing when the frame dies.
	{"h2d cut inside the head", false, false, cut(opH2DFrame, faults.DirSend, faults.KindTruncate, 10)},
	{"h2d cut inside the landed bulk", false, false, cut(opH2DFrame, faults.DirSend, faults.KindTruncate, 20+landTestSize/2)},
	{"h2d cut one byte short", false, false, cut(opH2DFrame, faults.DirSend, faults.KindTruncate, 20+landTestSize-1)},
	{"h2d reset before the frame", false, false, cut(opH2DFrame, faults.DirSend, faults.KindReset, 0)},
	{"h2d split inside the bulk", false, false, cut(opH2DFrame, faults.DirSend, faults.KindPartialWrite, 20+landTestSize/3)},
	{"h2d server receive resets", false, true, cut(opH2DFrame, faults.DirRecv, faults.KindReset, 0)},
	{"h2d server receive stalls", false, true, cut(opH2DFrame, faults.DirRecv, faults.KindStall, 0)},
	// Device to host, one frame: the client is landing in dst.
	{"d2h cut inside the landed bulk", false, true, cut(opD2HReply, faults.DirSend, faults.KindTruncate, landTestSize/2)},
	{"d2h cut inside the tail", false, true, cut(opD2HReply, faults.DirSend, faults.KindTruncate, landTestSize+2)},
	{"d2h cut before the first byte", false, true, cut(opD2HReply, faults.DirSend, faults.KindTruncate, 1)},
	{"d2h client receive truncates", false, false, cut(opD2HReply, faults.DirRecv, faults.KindTruncate, 0)},
	{"d2h client receive stalls", false, false, cut(opD2HReply, faults.DirRecv, faults.KindStall, 0)},
	{"d2h split inside the bulk", false, true, cut(opD2HReply, faults.DirSend, faults.KindPartialWrite, landTestSize/3)},
	{"async d2h cut inside the landed bulk", false, true, cut(opD2HReply, faults.DirSend, faults.KindTruncate, landTestSize/2)},
	{"async d2h split inside the bulk", false, true, cut(opD2HReply, faults.DirSend, faults.KindPartialWrite, landTestSize/3)},
	// Chunked, both directions: the second chunk dies.
	{"h2d chunk cut inside the head", true, false, cut(opH2DChunk1, faults.DirSend, faults.KindTruncate, 6)},
	{"h2d chunk cut inside the landed bulk", true, false, cut(opH2DChunk1, faults.DirSend, faults.KindTruncate, 12+landTestChnk/2)},
	{"h2d chunk server receive resets", true, true, cut(opH2DChunk1, faults.DirRecv, faults.KindReset, 0)},
	{"d2h chunk cut inside the head", true, true, cut(opD2HChunk1, faults.DirSend, faults.KindTruncate, 6)},
	{"d2h chunk cut inside the landed bulk", true, true, cut(opD2HChunk1, faults.DirSend, faults.KindTruncate, 12+landTestChnk/2)},
	{"d2h chunk client receive resets", true, false, cut(opD2HChunk1, faults.DirRecv, faults.KindReset, 0)},
	{"d2h chunk client receive stalls", true, false, cut(opD2HChunk1, faults.DirRecv, faults.KindStall, 0)},
}

// TestLandingSurvivesFaults cuts, resets and stalls bulk frames at every
// part of a landing — head, landed bytes, tail — in both directions, one
// frame and chunked. With retry the copy pair ends bit-exact on the
// reattached session and the device drains to empty; without it the call
// fails as a connection fault and the durable session parks intact.
func TestLandingSurvivesFaults(t *testing.T) {
	module := moduleImage(t, calib.MM)
	for _, lf := range landingFaults {
		for _, retry := range []bool{true, false} {
			lf, retry := lf, retry
			t.Run(fmt.Sprintf("%s/retry=%v", lf.name, retry), func(t *testing.T) {
				srvPlan, cliPlan := faults.Script(), faults.Script()
				if lf.onServer {
					srvPlan = faults.Script(lf.inj)
				} else {
					cliPlan = faults.Script(lf.inj)
				}
				lb := startLoopback(t, srvPlan)
				defer lb.stop()
				dial := lb.dial(cliPlan)
				conn, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				opts := []ClientOption{WithReconnect(dial)}
				if retry {
					opts = append(opts, WithRetry(time.Second))
				}
				if lf.chunked {
					opts = append(opts, WithChunkedTransfers(landTestSize, landTestChnk))
				}
				client, err := Open(conn, module, opts...)
				if err != nil {
					t.Fatal(err)
				}
				ptr, err := client.Malloc(landTestSize)
				if err != nil {
					t.Fatal(err)
				}
				src, dst := pattern(landTestSize, 0x33), make([]byte, landTestSize)
				err = client.MemcpyToDevice(ptr, src)
				if err == nil && lf.async() {
					err = client.MemcpyToHostAsync(dst, ptr, 0)
				} else if err == nil {
					err = client.MemcpyToHost(dst, ptr)
				}
				fired := srvPlan.Injected() + cliPlan.Injected()
				if fired != 1 {
					t.Fatalf("%d faults fired, want 1; op indices drifted (err %v)", fired, err)
				}
				transparent := lf.inj.Kind == faults.KindPartialWrite
				if (retry && !lf.async()) || transparent {
					if err != nil {
						t.Fatalf("copy pair through the fault: %v", err)
					}
					if !bytes.Equal(src, dst) {
						t.Fatal("copy pair diverged after the fault")
					}
					if cs := client.Stats(); !transparent && (cs.ConnFaults != 1 || cs.Reconnects != 1 || cs.Recovered != 1) {
						t.Fatalf("client stats %+v", cs)
					}
					// A second pair on the healed session, fault-free.
					src = pattern(landTestSize, 0x77)
					if err := client.MemcpyToDevice(ptr, src); err != nil {
						t.Fatal(err)
					}
					if err := client.MemcpyToHost(dst, ptr); err != nil || !bytes.Equal(src, dst) {
						t.Fatalf("second pair: %v", err)
					}
					if err := client.Close(); err != nil {
						t.Fatal(err)
					}
					waitFor(t, "device memory to drain", 5*time.Second, func() bool { return lb.dev.MemoryInUse() == 0 })
					return
				}
				if err == nil || !isConnFault(err) {
					t.Fatalf("copy pair without retry: %v, want a connection fault", err)
				}
				waitFor(t, "the session to park", 5*time.Second, func() bool { return lb.srv.Stats().SessionsParked == 1 })
				if got := lb.dev.MemoryInUse(); got != gpu.AllocCharge(landTestSize) {
					t.Fatalf("parked session holds %d bytes, want its allocation", got)
				}
				// The parked session is whole: the next call reattaches and a
				// fresh pair runs clean on the region the fault left half-written.
				if err := client.MemcpyToDevice(ptr, src); err != nil {
					t.Fatalf("after the fault: %v", err)
				}
				if err := client.MemcpyToHost(dst, ptr); err != nil || !bytes.Equal(src, dst) {
					t.Fatalf("read back after the fault: %v", err)
				}
				if err := client.Close(); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "device memory to drain", 5*time.Second, func() bool { return lb.dev.MemoryInUse() == 0 })
			})
		}
	}
}

// --- allocation and pooled-buffer gates -----------------------------------------------

// gateSession is a plain (non-durable) session over loopback TCP for the
// gates below, with both ends' connections in hand.
func gateSession(t *testing.T, opts ...ClientOption) (client *Client, cli, srv transport.Conn, stop func()) {
	t.Helper()
	lb := startLoopback(t, nil)
	cli, err := lb.dial(nil)()
	if err != nil {
		t.Fatal(err)
	}
	client, err = Open(cli, moduleImage(t, calib.MM), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return client, cli, lb.serverConn(0), func() {
		_ = client.Close()
		lb.stop()
	}
}

// Allocation counts of the commit before landing (before the session
// set-up fast path, for open+close), measured with these same functions
// (AllocsPerRun counts the whole process: client, both transport ends and
// the server's handler).
const (
	parentBulkPairAllocs    = 6
	parentChunkedPairAllocs = 46
	parentOpenAllocs        = 59
)

func skipUnderRace(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops buffers under the race detector; allocation counts are not exact")
	}
}

// TestBulkCopyPairStagesNothing: a 16 MiB copy each way in single frames
// asks the buffer pool for no bulk buffer on either end — the payload is
// never staged — and allocates nothing.
func TestBulkCopyPairStagesNothing(t *testing.T) {
	skipUnderRace(t)
	const n = 16 << 20
	client, cli, srv, stop := gateSession(t)
	defer stop()
	ptr, err := client.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := pattern(n, 9), make([]byte, n)
	pair := func() {
		if err := client.MemcpyToDevice(ptr, src); err != nil {
			t.Fatal(err)
		}
		if err := client.MemcpyToHost(dst, ptr); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	before := cli.Stats().PoolBulk + srv.Stats().PoolBulk
	srvBefore := srv.Stats()
	allocs := testing.AllocsPerRun(5, pair)
	if !bytes.Equal(src, dst) {
		t.Fatal("round trip diverged")
	}
	if staged := cli.Stats().PoolBulk + srv.Stats().PoolBulk - before; staged != 0 {
		t.Errorf("%d bulk buffers requested from the pool over 6 copy pairs, want 0", staged)
	}
	t.Logf("copy pair: %v allocations (%d before landing)", allocs, parentBulkPairAllocs)
	if allocs != 0 {
		t.Errorf("copy pair allocates %v times, want 0 (%d before landing)", allocs, parentBulkPairAllocs)
	}
	// The server end receives each message's head and tail into the small
	// buffer it kept from the message before: no pool request at all.
	if st := srv.Stats(); st.PoolHits+st.PoolMisses != srvBefore.PoolHits+srvBefore.PoolMisses {
		t.Errorf("server end: %d pool requests for %d messages",
			st.PoolHits+st.PoolMisses-srvBefore.PoolHits-srvBefore.PoolMisses, st.MessagesRecv-srvBefore.MessagesRecv)
	}
}

// TestAsyncCopyToHostStagesNothing: a MemcpyToHostAsync outside a batch is
// read from device memory into the caller's buffer like MemcpyToHost — it
// used to be copied out of device memory by the server and out of the reply
// frame by the client, a megabyte allocated at each step.
func TestAsyncCopyToHostStagesNothing(t *testing.T) {
	skipUnderRace(t)
	const n = 1 << 20
	client, _, _, stop := gateSession(t)
	defer stop()
	ptr, err := client.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := client.StreamCreate()
	if err != nil {
		t.Fatal(err)
	}
	src, dst := pattern(n, 0x41), make([]byte, n)
	if err := client.MemcpyToDevice(ptr, src); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if err := client.MemcpyToHostAsync(dst, ptr, stream); err != nil {
			t.Fatal(err)
		}
	}
	read() // the slots of the exchange exist, the frame buffers are pooled
	clear(dst)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	if !bytes.Equal(src, dst) {
		t.Fatal("async read diverged")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<10 {
		t.Errorf("a 1 MiB MemcpyToHostAsync allocates %d bytes on both ends, want under 1 KiB", got)
	}
}

// TestChunkedCopyPairAllocations: the chunked pair decodes no chunk into a
// fresh message on either end, stages none, and allocates nothing.
func TestChunkedCopyPairAllocations(t *testing.T) {
	skipUnderRace(t)
	const n = 16 << 20
	client, cli, srv, stop := gateSession(t, WithChunkedTransfers(0, 0))
	defer stop()
	ptr, err := client.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := pattern(n, 5), make([]byte, n)
	pair := func() {
		if err := client.MemcpyToDevice(ptr, src); err != nil {
			t.Fatal(err)
		}
		if err := client.MemcpyToHost(dst, ptr); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	before := cli.Stats().PoolBulk + srv.Stats().PoolBulk
	allocs := testing.AllocsPerRun(5, pair)
	if !bytes.Equal(src, dst) {
		t.Fatal("round trip diverged")
	}
	if staged := cli.Stats().PoolBulk + srv.Stats().PoolBulk - before; staged != 0 {
		t.Errorf("%d bulk buffers requested from the pool, want 0", staged)
	}
	t.Logf("chunked copy pair: %v allocations (%d before landing)", allocs, parentChunkedPairAllocs)
	if allocs != 0 {
		t.Errorf("chunked copy pair allocates %v times, want 0 (%d before landing)", allocs, parentChunkedPairAllocs)
	}
}

// maxOpenAllocs bounds an open+close over loopback: the 27 allocations it
// reads, plus 1. The socket readers are lent from a list no collection
// empties, so a dial allocates none and a reader made per open shows.
const maxOpenAllocs = 28

// TestNullCallAndOpenAllocations: landing and the lent socket reader cost
// the calls they do not serve nothing — a cudaDeviceSynchronize round trip
// allocates nothing on either end — and opening a session takes neither a
// reader, nor a copy of its module, nor a jitter source.
func TestNullCallAndOpenAllocations(t *testing.T) {
	skipUnderRace(t)
	client, _, _, stop := gateSession(t)
	defer stop()
	if err := client.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := client.DeviceSynchronize(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("DeviceSynchronize round trip allocates %v times, want 0", got)
	}

	lb := startLoopback(t, nil)
	defer lb.stop()
	module := moduleImage(t, calib.MM)
	open := func() { lb.openClose(t, module) }
	open()
	got := testing.AllocsPerRun(50, open)
	t.Logf("open+close: %v allocations (%d with a reader, a module copy and a jitter source per open)", got, parentOpenAllocs)
	if got > maxOpenAllocs {
		t.Errorf("open+close allocates %v times, want at most %d", got, maxOpenAllocs)
	}
}

// TestUnlandedRouteStillWorks: a connection that offers no landing (an old
// wrapper; the benchmark's span recorder) takes the staging route through
// the same receive code, on either end, bit-exact.
func TestUnlandedRouteStillWorks(t *testing.T) {
	const n = 1 << 20
	for _, chunked := range []bool{false, true} {
		clk := vclock.NewSim()
		srv := NewServer(gpu.New(gpu.Config{Clock: clk}))
		cliEnd, srvEnd := transport.Pipe(netsim.IB40G(), clk, nil)
		done := make(chan struct{})
		go func() { _ = srv.ServeConn(connOnly{srvEnd}); close(done) }()
		var opts []ClientOption
		if chunked {
			opts = append(opts, WithChunkedTransfers(n, n/4))
		}
		client, err := Open(connOnly{cliEnd}, moduleImage(t, calib.MM), opts...)
		if err != nil {
			t.Fatal(err)
		}
		ptr, _ := client.Malloc(n)
		src, dst := pattern(n, 0x11), make([]byte, n)
		if err := client.MemcpyToDevice(ptr, src); err != nil {
			t.Fatal(err)
		}
		if err := client.MemcpyToHost(dst, ptr); err != nil || !bytes.Equal(src, dst) {
			t.Fatalf("chunked=%v: unlanded round trip: %v", chunked, err)
		}
		if bulk := cliEnd.Stats().PoolBulk; bulk == 0 {
			t.Errorf("chunked=%v: the pipe staged nothing; the wrapper did not hide landing", chunked)
		}
		_ = client.Close()
		<-done
	}
}
