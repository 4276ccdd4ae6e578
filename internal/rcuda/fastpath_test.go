package rcuda

import (
	"bytes"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/sched"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// scribbleConn takes the Conn contract at its word: the payload Recv
// returned belongs to the connection again once the next Recv starts, so
// that is when it is overwritten with 0xFF. Anything that kept a view of a
// frame past its request — decoded launch Params, a memcpy payload, a batch
// sub-op — reads garbage and the inference output stops matching.
type scribbleConn struct {
	transport.Conn
	last []byte
}

func (c *scribbleConn) Recv() ([]byte, error) {
	for i := range c.last {
		c.last[i] = 0xFF
	}
	p, err := c.Conn.Recv()
	c.last = p
	return p, err
}

// startScribbleServer serves every accepted connection through a
// scribbleConn, on a Sim-clock device.
func startScribbleServer(t *testing.T, opts ...ServerOption) (srv *Server, addr string, stop func()) {
	t.Helper()
	srv = NewServer(gpu.New(gpu.Config{Clock: vclock.NewSim()}), opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn := &scribbleConn{Conn: transport.NewTCPConn(c)}
				_ = srv.ServeConn(conn) // a killed connection ends its session with an error
				_ = conn.Close()
			}()
		}
	}()
	return srv, ln.Addr().String(), func() {
		_ = ln.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		wg.Wait()
	}
}

// lossyConn loses the reply to the first batch frame it carries, after the
// server has executed it: the reply is read and dropped, the connection
// dies. armed is shared across redials so only that one reply is lost.
type lossyConn struct {
	transport.Conn
	armed    *bool
	awaiting bool
}

func (c *lossyConn) Send(m protocol.Message) error {
	if _, ok := m.(*protocol.BatchRequest); ok && *c.armed {
		c.awaiting = true
	}
	return c.Conn.Send(m)
}

func (c *lossyConn) Recv() ([]byte, error) {
	if !c.awaiting {
		return c.Conn.Recv()
	}
	c.awaiting, *c.armed = false, false
	if _, err := c.Conn.Recv(); err != nil {
		return nil, err
	}
	_ = c.Conn.Close()
	return nil, transport.ErrInjectedReset
}

// inferenceRuntime is the call surface of the 24-layer inference loop.
type inferenceRuntime interface {
	cudart.AsyncRuntime
	cudart.DeviceRuntime
}

const (
	aliasLayers = 24
	aliasDim    = 16
	aliasBytes  = 4 * aliasDim * aliasDim
)

// runInferenceRequests uploads a seeded 24-layer model and runs the given
// number of requests through it the way workload.ExecuteInference does —
// properties poll, async upload, 24 stream launches ping-ponging between
// two activation buffers, event record/synchronize/query, download — and
// returns every request's output.
func runInferenceRequests(rt inferenceRuntime, requests int, seed int64) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	matrix := func() []byte {
		m := make([]float32, aliasDim*aliasDim)
		for i := range m {
			m[i] = rng.Float32()*2 - 1
		}
		return cudart.Float32Bytes(m)
	}
	ptrs := make([]cudart.DevicePtr, aliasLayers+2)
	for i := range ptrs {
		p, err := rt.Malloc(aliasBytes)
		if err != nil {
			return nil, err
		}
		ptrs[i] = p
		if i < aliasLayers {
			if err := rt.MemcpyToDevice(p, matrix()); err != nil {
				return nil, err
			}
		}
	}
	act := ptrs[aliasLayers:]
	stream, err := rt.StreamCreate()
	if err != nil {
		return nil, err
	}
	event, err := rt.EventCreate()
	if err != nil {
		return nil, err
	}
	var outs [][]byte
	for r := 0; r < requests; r++ {
		if _, err := rt.DeviceProperties(); err != nil {
			return nil, err
		}
		if err := rt.MemcpyToDeviceAsync(act[0], matrix(), stream); err != nil {
			return nil, err
		}
		cur, nxt := act[0], act[1]
		for l := 0; l < aliasLayers; l++ {
			// A fresh parameter block per launch: the caller may reuse it
			// the moment LaunchAsync returns, so scribble over it too.
			params := gpu.PackParams(uint32(ptrs[l]), uint32(cur), uint32(nxt), aliasDim)
			if err := rt.LaunchAsync(kernels.SgemmKernel, cudart.Dim3{X: 1, Y: 1},
				cudart.Dim3{X: aliasDim, Y: aliasDim}, 0, params, stream); err != nil {
				return nil, err
			}
			for i := range params {
				params[i] = 0xFF
			}
			cur, nxt = nxt, cur
		}
		if err := rt.EventRecord(event, stream); err != nil {
			return nil, err
		}
		if err := rt.EventSynchronize(event); err != nil {
			return nil, err
		}
		if err := rt.EventQuery(event); err != nil {
			return nil, err
		}
		out := make([]byte, aliasBytes)
		if err := rt.MemcpyToHost(out, cur); err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	if err := rt.EventDestroy(event); err != nil {
		return nil, err
	}
	if err := rt.StreamDestroy(stream); err != nil {
		return nil, err
	}
	for _, p := range ptrs {
		if err := rt.Free(p); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// TestInferenceSurvivesFrameReuse drives the 24-layer inference workload
// unbatched, batched, and batched with the first batch's reply lost (so the
// retried frame is answered from the server's dedup window) over
// connections that destroy every received frame as soon as the contract
// allows. Outputs must equal the local runtime's bit for bit: nothing on
// either side may still be reading a frame — or the caller's parameter
// block — after its request is done.
func TestInferenceSurvivesFrameReuse(t *testing.T) { inferenceOverScribbledFrames(t) }

// inferenceOverScribbledFrames is TestInferenceSurvivesFrameReuse on servers
// with the given options added.
func inferenceOverScribbledFrames(t *testing.T, srvOpts ...ServerOption) {
	const requests, seed = 6, 31
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		t.Fatal(err)
	}
	local, err := cudart.OpenLocal(gpu.New(gpu.Config{Clock: vclock.NewSim()}), mod, cudart.Preinitialized())
	if err != nil {
		t.Fatal(err)
	}
	want, err := runInferenceRequests(local, requests, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name        string
		loseReply   bool
		wantReplays int64
		opts        []ClientOption
	}{
		{name: "unbatched"},
		{name: "batched", opts: []ClientOption{WithBatching(0, 0)}},
		{name: "batched, first reply lost", loseReply: true, wantReplays: 1,
			opts: []ClientOption{WithBatching(0, 0), WithRetry(4, 100*time.Microsecond)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr, stop := startScribbleServer(t, append(srvOpts, WithScheduler(sched.WFQ))...)
			defer stop()

			armed := tc.loseReply
			dial := func() (transport.Conn, error) {
				c, err := transport.DialTCP(addr)
				if err != nil {
					return nil, err
				}
				return &scribbleConn{Conn: &lossyConn{Conn: c, armed: &armed}}, nil
			}
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			client, err := Open(conn, moduleImage(t, calib.MM), append(tc.opts, WithReconnect(dial))...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runInferenceRequests(client, requests, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := client.Close(); err != nil {
				t.Fatal(err)
			}
			for r := range want {
				if !bytes.Equal(got[r], want[r]) {
					t.Fatalf("request %d: remote output differs from the local runtime", r)
				}
			}
			if armed {
				t.Fatal("the batch reply was never lost; the scenario did not run")
			}
			if ss := srv.Stats(); ss.BatchReplays != tc.wantReplays {
				t.Fatalf("BatchReplays = %d, want %d (stats %+v)", ss.BatchReplays, tc.wantReplays, ss)
			}
		})
	}
}

// TestSuccessCodeDoesNotAllocate: mapping a nil device error to its wire
// code is on the path of every successful op and must stay off the heap.
func TestSuccessCodeDoesNotAllocate(t *testing.T) {
	var sink uint32
	if got := testing.AllocsPerRun(1000, func() { sink += code(nil) }); got != 0 {
		t.Fatalf("code(nil) allocates %.0f times, want 0", got)
	}
	if sink != 0 {
		t.Fatalf("code(nil) = nonzero")
	}
}

// TestCallCodeAllocatesNothingOfItsOwn: the one helper behind every call
// answered by a bare result code — round trip, decode the code, map it —
// adds no allocation to the round trip it wraps: the code comes back as a
// uint32, not as a decoded reply struct.
func TestCallCodeAllocatesNothingOfItsOwn(t *testing.T) {
	skipUnderRace(t)
	client, _, _, stop := gateSession(t)
	defer stop()
	req := &protocol.SyncRequest{}
	var err error
	bare := testing.AllocsPerRun(200, func() { _, err = client.roundTrip(req) })
	if err != nil {
		t.Fatal(err)
	}
	whole := testing.AllocsPerRun(200, func() { err = client.callCode(req) })
	if err != nil {
		t.Fatal(err)
	}
	if whole > bare {
		t.Errorf("callCode allocates %v times, the round trip alone %v", whole, bare)
	}
}

// TestBatchedLaunchAllocationGate: a coalesced LaunchAsync costs nothing —
// the request is built in the client's launch slot and encoded once into
// the shared pending buffer. Measured between flushes, so the server does
// not run.
func TestBatchedLaunchAllocationGate(t *testing.T) {
	// Thresholds far above what the test enqueues: no flush while counting.
	client, _, _, cleanup := startBatchSession(t, netsim.GigaE(), nil, WithBatching(protocol.MaxBatchOps, 1<<20))
	defer cleanup()
	params := gpu.PackParams(0x100, 0x200, 0x300, 16)
	var lerr error
	launch := func() {
		if err := client.LaunchAsync(kernels.SgemmKernel, cudart.Dim3{X: 1, Y: 1},
			cudart.Dim3{X: 16, Y: 16}, 0, params, 1); err != nil {
			lerr = err
		}
	}
	launch() // sizes the pending buffer
	if got := testing.AllocsPerRun(500, launch); got != 0 {
		t.Fatalf("batched LaunchAsync allocates %.0f times per call, want 0", got)
	}
	if client.req.launch.Params != nil {
		t.Fatal("the client's launch slot still holds the caller's parameter block")
	}
	if lerr != nil {
		t.Fatal(lerr)
	}
	if got := client.Stats().BatchesFlushed; got != 0 {
		t.Fatalf("%d batches flushed while counting; the gate measured the server too", got)
	}
	// The bogus pointers fail on the server; that surfaces at the sync
	// point, as any batched launch failure does.
	if err := client.DeviceSynchronize(); err == nil {
		t.Fatal("launches on unallocated pointers must fail at the sync point")
	}
}
