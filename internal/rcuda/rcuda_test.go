package rcuda

import (
	"bytes"
	"errors"
	"log"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rcuda/internal/blas"
	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

func moduleImage(t *testing.T, cs calib.CaseStudy) []byte {
	t.Helper()
	mod, err := kernels.ModuleFor(cs)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Binary()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// simDaemon serves a fresh simulated device over link; the link charges the
// device's clock.
func simDaemon(link *netsim.Link, opts ...ServerOption) (*SimDaemon, *gpu.Device, *vclock.Sim) {
	clk := vclock.NewSim()
	dev := gpu.New(gpu.Config{Clock: clk})
	return NewSimDaemon(NewServer(dev, opts...), link, clk, nil), dev, clk
}

// closeAndWait returns a cleanup that closes client and fails the test if
// the close fails or its daemon reports a handler error or device memory
// left in use.
func closeAndWait(t *testing.T, client *Client, d *SimDaemon) func() {
	return func() {
		if err := client.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := d.Wait(); err != nil {
			t.Errorf("server: %v", err)
		}
	}
}

// openOn opens a client on d with the given module image.
func openOn(t *testing.T, d *SimDaemon, img []byte, opts ...ClientOption) (*Client, func()) {
	t.Helper()
	client, err := d.Open(img, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return client, closeAndWait(t, client, d)
}

// startSimSession spins up a daemon on a simulated link and returns a
// client opened on it with the MM module.
func startSimSession(t *testing.T, link *netsim.Link, opts ...ClientOption) (*Client, *gpu.Device, *vclock.Sim, func()) {
	t.Helper()
	d, dev, clk := simDaemon(link)
	client, cleanup := openOn(t, d, moduleImage(t, calib.MM), opts...)
	return client, dev, clk, cleanup
}

func TestRemoteGEMMOverSimulatedNetwork(t *testing.T) {
	client, dev, _, cleanup := startSimSession(t, netsim.IB40G())
	defer cleanup()

	const m = 32
	rng := rand.New(rand.NewSource(1))
	a := make([]float32, m*m)
	b := make([]float32, m*m)
	for i := range a {
		a[i] = rng.Float32()
		b[i] = rng.Float32()
	}
	nbytes := uint32(4 * m * m)
	aPtr, err := client.Malloc(nbytes)
	if err != nil {
		t.Fatal(err)
	}
	bPtr, err := client.Malloc(nbytes)
	if err != nil {
		t.Fatal(err)
	}
	cPtr, err := client.Malloc(nbytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDevice(aPtr, cudart.Float32Bytes(a)); err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDevice(bPtr, cudart.Float32Bytes(b)); err != nil {
		t.Fatal(err)
	}
	if err := client.Launch(kernels.SgemmKernel, cudart.Dim3{X: 2, Y: 2}, cudart.Dim3{X: 16, Y: 16}, 0,
		gpu.PackParams(uint32(aPtr), uint32(bPtr), uint32(cPtr), m)); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, nbytes)
	if err := client.MemcpyToHost(out, cPtr); err != nil {
		t.Fatal(err)
	}
	want := make([]float32, m*m)
	if err := blas.SgemmNaive(m, m, m, a, b, want); err != nil {
		t.Fatal(err)
	}
	for i, v := range cudart.BytesFloat32(out) {
		if math.Abs(float64(v-want[i])) > 1e-3 {
			t.Fatalf("C[%d] = %g, want %g", i, v, want[i])
		}
	}
	for _, p := range []cudart.DevicePtr{aPtr, bPtr, cPtr} {
		if err := client.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.MemoryInUse(); got != 0 {
		t.Fatalf("device memory in use after frees: %d", got)
	}
}

func TestRemoteErrorsCarryCudaCodes(t *testing.T) {
	client, _, _, cleanup := startSimSession(t, netsim.IB40G())
	defer cleanup()

	if _, err := client.Malloc(0); !errors.Is(err, cudart.ErrorInvalidValue) {
		t.Fatalf("Malloc(0) = %v, want cudaErrorInvalidValue", err)
	}
	if err := client.Free(cudart.DevicePtr(0xdead)); !errors.Is(err, cudart.ErrorInvalidDevicePointer) {
		t.Fatalf("bad Free = %v, want cudaErrorInvalidDevicePointer", err)
	}
	if err := client.Launch("no_such_kernel", cudart.Dim3{}, cudart.Dim3{}, 0, nil); !errors.Is(err, cudart.ErrorLaunchFailure) {
		t.Fatalf("bad launch = %v, want cudaErrorLaunchFailure", err)
	}
	if err := client.MemcpyToDevice(0, []byte{1}); !errors.Is(err, cudart.ErrorInvalidDevicePointer) {
		t.Fatalf("null memcpy = %v, want cudaErrorInvalidDevicePointer", err)
	}
	if err := client.DeviceSynchronize(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func TestHandshakeCapability(t *testing.T) {
	client, _, _, cleanup := startSimSession(t, netsim.GigaE())
	defer cleanup()
	maj, min := client.Capability()
	if maj != 1 || min != 3 {
		t.Fatalf("capability %d.%d, want 1.3", maj, min)
	}
}

func TestServerRejectsUnknownModule(t *testing.T) {
	d, dev, _ := simDaemon(netsim.IB40G())
	if _, err := d.Open([]byte("not a module image")); err == nil {
		t.Fatal("Open with a bogus module must fail")
	}
	// Wait returns: the refused open left no handler running.
	if srvErr := waitWithin(t, d); srvErr == nil {
		t.Fatal("server must report the failed handshake")
	}
	if got := dev.MemoryInUse(); got != 0 {
		t.Fatalf("leaked %d bytes after failed handshake", got)
	}
}

func TestAbruptDisconnectReleasesResources(t *testing.T) {
	d, _, _ := simDaemon(netsim.IB40G())
	conn, _ := d.Dial()
	client, err := Open(conn, moduleImage(t, calib.MM))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	// Drop the transport without finalizing, as a crashed client would.
	_ = conn.Close()
	if err := d.Wait(); err != nil {
		t.Fatalf("server should treat disconnect as orderly and release the session: %v", err)
	}
}

func TestClientUseAfterClose(t *testing.T) {
	client, _, _, cleanup := startSimSession(t, netsim.IB40G())
	cleanup()
	if _, err := client.Malloc(64); err == nil {
		t.Fatal("calls after Close must fail")
	}
	if err := client.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	_ = client
}

func TestSimulatedTimingMatchesLinkModel(t *testing.T) {
	link := netsim.IB40G()
	client, _, clk, cleanup := startSimSession(t, link)
	defer cleanup()

	before := clk.Now()
	ptr, err := client.Malloc(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now() - before
	// A cudaMalloc is an 8-byte request plus an 8-byte response.
	want := link.WireTime(8) * 2
	if elapsed != want {
		t.Fatalf("remote malloc took %v of simulated time, want %v", elapsed, want)
	}
	_ = client.Free(ptr)
}

// Observer recording for trace support.
type recordingObserver struct {
	calls []protocol.Op
	sent  int
	recv  int
}

func (r *recordingObserver) Call(op protocol.Op, sent, recv int) {
	r.calls = append(r.calls, op)
	r.sent += sent
	r.recv += recv
}

func TestObserverSeesEveryCall(t *testing.T) {
	obs := &recordingObserver{}
	client, _, _, cleanup := startSimSession(t, netsim.IB40G(), WithObserver(obs))
	ptr, _ := client.Malloc(256)
	_ = client.MemcpyToDevice(ptr, make([]byte, 256))
	_ = client.Free(ptr)
	cleanup()

	want := []protocol.Op{protocol.OpInit, protocol.OpMalloc, protocol.OpMemcpyToDevice, protocol.OpFree, protocol.OpFinalize}
	if len(obs.calls) != len(want) {
		t.Fatalf("observed %v, want %v", obs.calls, want)
	}
	for i := range want {
		if obs.calls[i] != want[i] {
			t.Fatalf("call %d = %v, want %v", i, obs.calls[i], want[i])
		}
	}
	// Init sends x+4 = 21486+4 bytes; Table I accounting must accumulate.
	if obs.sent < 21490 {
		t.Fatalf("observer saw %d bytes sent, want at least the module", obs.sent)
	}
}

func TestServeOverRealTCP(t *testing.T) {
	dev := gpu.New(gpu.Config{Clock: vclock.NewWall()})
	srv := NewServer(dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// Several concurrent clients share the daemon, each on its own
	// context — the paper's time-multiplexing of one GPU.
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			errs <- runRemoteGEMM(ln.Addr().String(), seed)
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	if got := dev.MemoryInUse(); got != 0 {
		t.Fatalf("device memory leaked across sessions: %d", got)
	}
}

func runRemoteGEMM(addr string, seed int64) error {
	conn, err := transport.DialTCP(addr)
	if err != nil {
		return err
	}
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		return err
	}
	img, err := mod.Binary()
	if err != nil {
		return err
	}
	client, err := Open(conn, img)
	if err != nil {
		return err
	}
	defer client.Close()

	const m = 16
	rng := rand.New(rand.NewSource(seed))
	a := make([]float32, m*m)
	b := make([]float32, m*m)
	for i := range a {
		a[i] = rng.Float32()
		b[i] = rng.Float32()
	}
	nbytes := uint32(4 * m * m)
	aPtr, err := client.Malloc(nbytes)
	if err != nil {
		return err
	}
	bPtr, err := client.Malloc(nbytes)
	if err != nil {
		return err
	}
	cPtr, err := client.Malloc(nbytes)
	if err != nil {
		return err
	}
	if err := client.MemcpyToDevice(aPtr, cudart.Float32Bytes(a)); err != nil {
		return err
	}
	if err := client.MemcpyToDevice(bPtr, cudart.Float32Bytes(b)); err != nil {
		return err
	}
	if err := client.Launch(kernels.SgemmKernel, cudart.Dim3{X: 1}, cudart.Dim3{X: 16}, 0,
		gpu.PackParams(uint32(aPtr), uint32(bPtr), uint32(cPtr), m)); err != nil {
		return err
	}
	out := make([]byte, nbytes)
	if err := client.MemcpyToHost(out, cPtr); err != nil {
		return err
	}
	want := make([]float32, m*m)
	if err := blas.SgemmNaive(m, m, m, a, b, want); err != nil {
		return err
	}
	for i, v := range cudart.BytesFloat32(out) {
		if math.Abs(float64(v-want[i])) > 1e-3 {
			return errors.New("remote GEMM result mismatch")
		}
	}
	for _, p := range []cudart.DevicePtr{aPtr, bPtr, cPtr} {
		if err := client.Free(p); err != nil {
			return err
		}
	}
	return nil
}

func TestServerCloseIsIdempotentAndFast(t *testing.T) {
	dev := gpu.New(gpu.Config{Clock: vclock.NewWall()})
	srv := NewServer(dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Serving again on a closed server must fail immediately.
	ln2, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln2.Close()
	if err := srv.Serve(ln2); err == nil {
		t.Fatal("Serve on closed server must fail")
	}
}

func TestServerStats(t *testing.T) {
	clk := vclock.NewSim()
	srv := NewServer(gpu.New(gpu.Config{Clock: clk}))
	if st := srv.Stats(); st.SessionsStarted != 0 || st.Requests != 0 {
		t.Fatalf("fresh server stats %+v", st)
	}
	d := NewSimDaemon(srv, netsim.IB40G(), clk, nil)
	client, err := d.Open(moduleImage(t, calib.MM))
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.SessionsActive != 1 {
		t.Fatalf("active sessions = %d, want 1", st.SessionsActive)
	}
	ptr, _ := client.Malloc(256)
	_ = client.MemcpyToDevice(ptr, make([]byte, 256))
	_ = client.Free(ptr)
	_ = client.Close()
	if err := d.Wait(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.SessionsStarted != 1 || st.SessionsActive != 0 {
		t.Fatalf("session accounting %+v", st)
	}
	// malloc + memcpy + free + finalize = 4 post-handshake requests.
	if st.Requests != 4 {
		t.Fatalf("requests = %d, want 4", st.Requests)
	}
	// Inbound traffic includes the 21490-byte module plus the memcpy.
	if st.BytesReceived < 21490+256 {
		t.Fatalf("bytes received = %d, too small", st.BytesReceived)
	}
	if st.BytesSent == 0 {
		t.Fatal("server must have sent responses")
	}
}

// A stress test: many goroutines hammer one device through separate
// sessions while the race detector watches.
func TestConcurrentSessionsStress(t *testing.T) {
	dev := gpu.New(gpu.Config{Clock: vclock.NewWall()})
	srv := NewServer(dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				if err := runRemoteGEMM(ln.Addr().String(), seed*10+int64(rep)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-serveDone
	if dev.MemoryInUse() != 0 {
		t.Fatalf("leaked %d bytes across %d stress sessions", dev.MemoryInUse(), workers*3)
	}
	if st := srv.Stats(); st.SessionsStarted != workers*3 {
		t.Fatalf("sessions started = %d, want %d", st.SessionsStarted, workers*3)
	}
}

// rawMessage lets tests inject arbitrary bytes as a protocol frame.
type rawMessage []byte

func (m rawMessage) Encode(dst []byte) []byte { return append(dst, m...) }
func (m rawMessage) WireSize() int            { return len(m) }

// A corrupt frame after the handshake must end the session with an error —
// and still release every server-side resource.
func TestServerRejectsCorruptFrameAndCleansUp(t *testing.T) {
	d, dev, _ := simDaemon(netsim.IB40G())
	conn, _ := d.Dial()
	client, err := Open(conn, moduleImage(t, calib.MM))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Malloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	// Inject garbage directly on the transport.
	if err := conn.Send(rawMessage{0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(); err == nil {
		t.Fatal("server must report the malformed request")
	}
	if got := dev.MemoryInUse(); got != 0 {
		t.Fatalf("server leaked %d bytes after protocol error", got)
	}

	// The same garbage in place of the opening handshake.
	d, _, _ = simDaemon(netsim.IB40G())
	conn, _ = d.Dial()
	if err := conn.Send(rawMessage{0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := waitWithin(t, d); err == nil {
		t.Fatal("server must report a malformed opening frame")
	}
	_ = conn.Close()
}

// A truncated frame (valid op, wrong length) is equally fatal and clean.
func TestServerRejectsTruncatedRequest(t *testing.T) {
	d, dev, _ := simDaemon(netsim.IB40G())
	conn, _ := d.Dial()
	if _, err := Open(conn, moduleImage(t, calib.MM)); err != nil {
		t.Fatal(err)
	}
	// OpMalloc with a missing size field.
	truncated := (&protocol.MallocRequest{Size: 8}).Encode(nil)[:4]
	if err := conn.Send(rawMessage(truncated)); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(); err == nil {
		t.Fatal("server must report the truncated request")
	}
	if dev.MemoryInUse() != 0 {
		t.Fatal("resources leaked after truncated request")
	}
}

func TestRemoteEventSynchronize(t *testing.T) {
	client, _, _, cleanup := startSimSession(t, netsim.IB40G())
	defer cleanup()
	e, err := client.EventCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.EventRecord(e, 0); err != nil {
		t.Fatal(err)
	}
	if err := client.EventSynchronize(e); err != nil {
		t.Fatal(err)
	}
	if err := client.EventSynchronize(99); !errors.Is(err, cudart.ErrorInvalidValue) {
		t.Fatalf("sync on bogus event = %v", err)
	}
	if err := client.EventDestroy(e); err != nil {
		t.Fatal(err)
	}
}

// lockedBuffer synchronizes the test's log sink against the server's
// session goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *lockedBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func TestServerLoggerReceivesSessionErrors(t *testing.T) {
	var buf lockedBuffer
	logger := log.New(&buf, "", 0)
	dev := gpu.New(gpu.Config{Clock: vclock.NewWall()})
	srv := NewServer(dev, WithLogger(logger))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// A client that sends garbage instead of an init frame.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tc := transport.NewTCPConn(conn)
	if err := tc.Send(rawMessage{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_ = tc.Close()

	// Give the session goroutine a moment to log, then shut down.
	deadline := time.Now().Add(2 * time.Second)
	for buf.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if !strings.Contains(buf.String(), "session") {
		t.Fatalf("logger saw nothing about the failed session: %q", buf.String())
	}
}

func TestRemoteLaunchConfigurationValidation(t *testing.T) {
	client, _, _, cleanup := startSimSession(t, netsim.IB40G())
	defer cleanup()
	err := client.Launch(kernels.SgemmKernel, cudart.Dim3{X: 1}, cudart.Dim3{X: 64, Y: 64}, 0, nil)
	if !errors.Is(err, cudart.ErrorInvalidConfiguration) {
		t.Fatalf("4096-thread block = %v, want cudaErrorInvalidConfiguration", err)
	}
}
