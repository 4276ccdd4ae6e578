package rcuda

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

func TestChunkedMemcpyRoundTrip(t *testing.T) {
	// Threshold below the transfer size and a chunk size that does not
	// divide it, so the final short chunk is exercised.
	const size = 1<<20 + 12345
	client, _, _, cleanup := startSimSession(t, netsim.IB40G(), WithChunkedTransfers(1<<16, 1<<18))
	defer cleanup()

	src := make([]byte, size)
	rng := rand.New(rand.NewSource(7))
	rng.Read(src)

	ptr, err := client.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDevice(ptr, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, size)
	if err := client.MemcpyToHost(dst, ptr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("chunked round trip corrupted the payload")
	}
	// Below the threshold the legacy single-frame path must still work.
	small := src[:1024]
	if err := client.MemcpyToDevice(ptr, small); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(small))
	if err := client.MemcpyToHost(got, ptr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(small, got) {
		t.Fatal("legacy round trip corrupted the payload")
	}
	if err := client.Free(ptr); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedTransferOverlapsNetworkAndPCIe is the tentpole's timing
// regression: on the simulated clock a large chunked host-to-device copy
// must cost close to max(network, PCIe) — within 15% of the pipelined
// lower bound — while the legacy path costs their sum.
func TestChunkedTransferOverlapsNetworkAndPCIe(t *testing.T) {
	const (
		size      = 64 << 20
		chunkSize = 1 << 20
	)
	link := netsim.IB40G()

	// Pipelined lower bound: all chunk frames cross the wire back to back
	// (the network is busy the whole time) and the last chunk's PCIe push
	// happens after its arrival — the transfer cannot beat
	// max(network total, PCIe total) + one chunk of the other stage.
	chunkWire := link.WireTime(int64(chunkSize + 12))
	netTotal := time.Duration(size/chunkSize) * chunkWire
	pcieTotal := calib.PCIeTransfer(size)
	bound := netTotal
	if pcieTotal > bound {
		bound = pcieTotal
	}

	measure := func(chunked bool) time.Duration {
		t.Helper()
		var client *Client
		var clk *vclock.Sim
		var cleanup func()
		if chunked {
			client, _, clk, cleanup = startSimSession(t, link, WithChunkedTransfers(chunkSize, chunkSize))
		} else {
			client, _, clk, cleanup = startSimSession(t, link)
		}
		defer cleanup()
		ptr, err := client.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		before := clk.Now()
		if err := client.MemcpyToDevice(ptr, data); err != nil {
			t.Fatal(err)
		}
		if err := client.DeviceSynchronize(); err != nil {
			t.Fatal(err)
		}
		return clk.Now() - before
	}

	chunkedTime := measure(true)
	legacyTime := measure(false)

	// The legacy path strictly serializes the stages: one big frame on the
	// wire, then the full PCIe push.
	legacyBound := link.WireTime(size+20) + pcieTotal
	if legacyTime < legacyBound {
		t.Fatalf("legacy transfer %v beat the serialized bound %v", legacyTime, legacyBound)
	}
	if limit := bound * 115 / 100; chunkedTime > limit {
		t.Fatalf("chunked transfer %v exceeds 115%% of pipelined bound %v (net %v, pcie %v)",
			chunkedTime, bound, netTotal, pcieTotal)
	}
	if chunkedTime >= legacyTime {
		t.Fatalf("chunked transfer %v not faster than legacy %v", chunkedTime, legacyTime)
	}
	t.Logf("64 MiB over 40GI: chunked %v, legacy %v, bound %v (net %v, pcie %v)",
		chunkedTime, legacyTime, bound, netTotal, pcieTotal)
}

// TestChunkedDeviceToHostOverlap checks the mirror direction: the server
// overlaps chunk k's network send with chunk k+1's PCIe read.
func TestChunkedDeviceToHostOverlap(t *testing.T) {
	const (
		size      = 64 << 20
		chunkSize = 1 << 20
	)
	link := netsim.IB40G()
	client, _, clk, cleanup := startSimSession(t, link, WithChunkedTransfers(chunkSize, chunkSize))
	defer cleanup()

	ptr, err := client.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, size)
	before := clk.Now()
	if err := client.MemcpyToHost(dst, ptr); err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now() - before

	chunkWire := link.WireTime(int64(chunkSize + 12))
	netTotal := time.Duration(size/chunkSize) * chunkWire
	pcieTotal := calib.PCIeTransfer(size)
	bound := netTotal
	if pcieTotal > bound {
		bound = pcieTotal
	}
	serialized := netTotal + pcieTotal
	if limit := bound * 115 / 100; elapsed > limit {
		t.Fatalf("chunked D2H %v exceeds 115%% of pipelined bound %v", elapsed, bound)
	}
	if elapsed >= serialized {
		t.Fatalf("chunked D2H %v shows no overlap (serialized %v)", elapsed, serialized)
	}
}

// scaledJitter scales every modeled device cost by a constant factor.
type scaledJitter int

func (j scaledJitter) Perturb(d time.Duration) time.Duration { return d * time.Duration(j) }

// stampingConn stamps, on the monotonic clock, the send of each chunked
// copy's Begin and the arrival of every chunk. It forwards only the four
// methods of transport.Conn, so every chunk comes through Recv.
type stampingConn struct {
	transport.Conn
	begin  time.Time
	chunks []time.Time
}

func (c *stampingConn) Send(m protocol.Message) error {
	if _, ok := m.(*protocol.MemcpyStreamBeginRequest); ok {
		c.begin, c.chunks = time.Now(), nil
	}
	return c.Conn.Send(m)
}

func (c *stampingConn) Recv() ([]byte, error) {
	b, err := c.Conn.Recv()
	if err == nil {
		if _, chunkErr := protocol.DecodeChunk(b); chunkErr == nil {
			c.chunks = append(c.chunks, time.Now())
		}
	}
	return b, err
}

// TestChunkedCopyToHostPacedOverTCP holds the per-chunk pacing of a copy to
// the host on a wall-clock daemon over a real socket: the server books the
// chunks' PCIe reads back to back from the Begin and sends each once its
// read completes, so chunk k cannot reach the client before k+1 reads have
// passed since the client sent the Begin. Every device cost is scaled
// ×100, a 1 MiB read to about 17 ms, so the pacing stands well clear of
// loopback latency; only lower bounds are asserted.
func TestChunkedCopyToHostPacedOverTCP(t *testing.T) {
	const (
		scale     = 100
		chunkSize = 1 << 20
		chunks    = 4
		size      = chunks * chunkSize
	)
	dev := gpu.New(gpu.Config{Clock: vclock.NewWall(), Jitter: scaledJitter(scale)})
	srv := NewServer(dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	tcp, err := transport.DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := &stampingConn{Conn: tcp}
	client, err := Open(conn, moduleImage(t, calib.MM), WithChunkedTransfers(1, chunkSize))
	if err != nil {
		_ = tcp.Close()
		t.Fatal(err)
	}
	defer client.Close()
	ptr, err := client.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(src)
	if err := client.MemcpyToDevice(ptr, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, size)
	if err := client.MemcpyToHost(dst, ptr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("paced copy to the host corrupted the payload")
	}

	if len(conn.chunks) != chunks {
		t.Fatalf("received %d chunks, want %d", len(conn.chunks), chunks)
	}
	read := scale * calib.PCIeTransfer(chunkSize)
	for k, at := range conn.chunks {
		if got, floor := at.Sub(conn.begin), time.Duration(k+1)*read; got < floor {
			t.Errorf("chunk %d arrived %v after the Begin, before %d scaled reads (%v)", k, got, k+1, floor)
		}
	}
}

func TestChunkedTransferBadRegionRejectedBeforeData(t *testing.T) {
	client, _, _, cleanup := startSimSession(t, netsim.IB40G(), WithChunkedTransfers(1<<16, 1<<16))
	defer cleanup()

	ptr, err := client.Malloc(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	// Transfer larger than the allocation: the server must reject it in
	// the Begin acknowledgement, before any chunk moves.
	data := make([]byte, 1<<18)
	err = client.MemcpyToDevice(ptr, data)
	if !errors.Is(err, cudart.ErrorInvalidDevicePointer) {
		t.Fatalf("oversize chunked transfer: got %v, want %v", err, cudart.ErrorInvalidDevicePointer)
	}
	if err := client.MemcpyToHost(data, ptr); !errors.Is(err, cudart.ErrorInvalidDevicePointer) {
		t.Fatalf("oversize chunked read: got %v, want %v", err, cudart.ErrorInvalidDevicePointer)
	}
	// The rejection must leave the session coherent.
	ok := make([]byte, 1<<16)
	if err := client.MemcpyToDevice(ptr, ok); err != nil {
		t.Fatalf("session broken after rejected transfer: %v", err)
	}
	if err := client.Free(ptr); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedObserverSeesOneCall asserts a chunked transfer is observed as
// the single cudaMemcpy it replaces, with the full chunked byte volume.
func TestChunkedObserverSeesOneCall(t *testing.T) {
	const size = 1 << 20
	obs := &recordingObserver{}
	client, _, _, cleanup := startSimSession(t, netsim.IB40G(), WithObserver(obs), WithChunkedTransfers(size, size/4))
	defer cleanup()

	ptr, err := client.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	obs.calls = nil
	obs.sent, obs.recv = 0, 0
	if err := client.MemcpyToDevice(ptr, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	if len(obs.calls) != 1 || obs.calls[0] != protocol.OpMemcpyToDevice {
		t.Fatalf("observed calls %v, want one cudaMemcpy (to device)", obs.calls)
	}
	begin := (&protocol.MemcpyStreamBeginRequest{}).WireSize()
	end := (&protocol.MemcpyStreamEndRequest{}).WireSize()
	wantSent := begin + end + 4*(12+size/4)
	if obs.sent != wantSent {
		t.Fatalf("observed %d bytes sent, want %d", obs.sent, wantSent)
	}
	if obs.recv != 8 { // Begin ack + End status
		t.Fatalf("observed %d bytes received, want 8", obs.recv)
	}
}

// TestRuntimeMethodsFailCleanlyAfterClose exercises every Runtime and
// AsyncRuntime method after Close; each must fail with the initialization
// error, per the Client contract.
func TestRuntimeMethodsFailCleanlyAfterClose(t *testing.T) {
	client, _, _, cleanup := startSimSession(t, netsim.IB40G(), WithChunkedTransfers(1<<10, 1<<10))
	cleanup()

	big := make([]byte, 2048) // above the chunked threshold
	calls := map[string]func() error{
		"Malloc":                 func() error { _, err := client.Malloc(64); return err },
		"Free":                   func() error { return client.Free(4) },
		"MemcpyToDevice":         func() error { return client.MemcpyToDevice(4, []byte{1}) },
		"MemcpyToDevice/chunked": func() error { return client.MemcpyToDevice(4, big) },
		"MemcpyToHost":           func() error { return client.MemcpyToHost(make([]byte, 1), 4) },
		"MemcpyToHost/chunked":   func() error { return client.MemcpyToHost(big, 4) },
		"Launch": func() error {
			return client.Launch("k", cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0, nil)
		},
		"DeviceSynchronize":   func() error { return client.DeviceSynchronize() },
		"StreamCreate":        func() error { _, err := client.StreamCreate(); return err },
		"StreamDestroy":       func() error { return client.StreamDestroy(1) },
		"StreamSynchronize":   func() error { return client.StreamSynchronize(1) },
		"StreamQuery":         func() error { return client.StreamQuery(1) },
		"MemcpyToDeviceAsync": func() error { return client.MemcpyToDeviceAsync(4, []byte{1}, 1) },
		"MemcpyToHostAsync":   func() error { return client.MemcpyToHostAsync(make([]byte, 1), 4, 1) },
		"LaunchAsync": func() error {
			return client.LaunchAsync("k", cudart.Dim3{X: 1}, cudart.Dim3{X: 1}, 0, nil, 1)
		},
		"EventCreate":          func() error { _, err := client.EventCreate(); return err },
		"EventRecord":          func() error { return client.EventRecord(1, 0) },
		"EventSynchronize":     func() error { return client.EventSynchronize(1) },
		"EventQuery":           func() error { return client.EventQuery(1) },
		"EventDestroy":         func() error { return client.EventDestroy(1) },
		"EventElapsed":         func() error { _, err := client.EventElapsed(1, 2); return err },
		"DeviceCount":          func() error { _, err := client.DeviceCount(); return err },
		"SetDevice":            func() error { return client.SetDevice(0) },
		"DeviceProperties":     func() error { _, err := client.DeviceProperties(); return err },
		"Memset":               func() error { return client.Memset(4, 0, 1) },
		"MemcpyDeviceToDevice": func() error { return client.MemcpyDeviceToDevice(4, 8, 1) },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, cudart.ErrorInitialization) {
			t.Errorf("%s after Close: got %v, want %v", name, err, cudart.ErrorInitialization)
		}
	}
	// Capability still answers from the cached handshake, and Close stays
	// idempotent.
	if maj, _ := client.Capability(); maj == 0 {
		t.Error("Capability lost after Close")
	}
	if err := client.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestChunkedCopyCutByAFaultReleasesItsStream: a connection fault on the
// server's end of a chunked copy — its receive of the second chunk to the
// device, its send of the second chunk to the host — cuts the transfer, and
// the retry on the reattached session copies it whole. The stream the cut
// attempt opened must go with it: once the session parks, its exported
// streams are those a fault-free copy leaves, or every retried copy would
// leave one more in the session's checkpoints.
func TestChunkedCopyCutByAFaultReleasesItsStream(t *testing.T) {
	module := moduleImage(t, calib.MM)
	parkedStreams := func(t *testing.T, inj ...faults.Injection) []protocol.TimelineEntry {
		plan := faults.Script(inj...)
		lb := startLoopback(t, plan)
		defer lb.stop()
		dial := lb.dial(nil)
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		client, err := Open(conn, module, WithReconnect(dial), WithRetry(time.Second),
			WithChunkedTransfers(landTestSize, landTestChnk))
		if err != nil {
			t.Fatal(err)
		}
		ptr, err := client.Malloc(landTestSize)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := pattern(landTestSize, 0x5a), make([]byte, landTestSize)
		if err := client.MemcpyToDevice(ptr, src); err != nil {
			t.Fatal(err)
		}
		if err := client.MemcpyToHost(dst, ptr); err != nil || !bytes.Equal(src, dst) {
			t.Fatalf("copy pair through the fault: %v", err)
		}
		if fired := plan.Injected(); fired != int64(len(inj)) {
			t.Fatalf("%d faults fired, want %d; op indices drifted", fired, len(inj))
		}
		// Park the session as a dead connection leaves it; parking publishes
		// its contexts under the server's lock.
		id := client.SessionID()
		_ = client.conn.Close()
		var sess *session
		waitFor(t, "the session to park", 5*time.Second, func() bool {
			lb.srv.mu.Lock()
			defer lb.srv.mu.Unlock()
			sess = lb.srv.registry[id]
			return sess != nil && !sess.attached
		})
		lb.srv.mu.Lock()
		st, err := sess.context().ExportState()
		lb.srv.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		return st.Timeline.Streams
	}
	want := parkedStreams(t)
	for name, inj := range map[string]faults.Injection{
		"to the device": cut(opH2DChunk1, faults.DirRecv, faults.KindReset, 0),
		"to the host":   cut(opD2HChunk1, faults.DirSend, faults.KindReset, 0),
	} {
		t.Run(name, func(t *testing.T) {
			if got := parkedStreams(t, inj); !reflect.DeepEqual(got, want) {
				t.Fatalf("parked session's streams %v after the cut copy, %v after a clean one", got, want)
			}
		})
	}
}

// TestChunkedCopyAllocatesNothing: a 4 MiB chunked copy each way over the
// simulated deployment allocates nothing on either end once the
// connection's slots exist — the Begin, the End, the chunk being sent and
// the assembler live in the client and the session.
func TestChunkedCopyAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	const n = 4 << 20
	client, _, conn, cleanup := startBatchSession(t, netsim.IB40G(), nil, WithChunkedTransfers(0, 0))
	defer cleanup()
	ptr, err := client.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := pattern(n, 3), make([]byte, n)
	pair := func() {
		if err := client.MemcpyToDevice(ptr, src); err != nil {
			t.Fatal(err)
		}
		if err := client.MemcpyToHost(dst, ptr); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	before := conn.Stats().MessagesSent
	if got := testing.AllocsPerRun(20, pair); got != 0 {
		t.Errorf("a chunked copy pair allocates %v times, want 0", got)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("round trip diverged")
	}
	// Begin, four chunks and End to the device, Begin to the host.
	if sent := (conn.Stats().MessagesSent - before) / 21; sent != 7 {
		t.Fatalf("%d messages sent per copy pair, want the chunked protocol's 7", sent)
	}
}
