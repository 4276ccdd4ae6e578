package rcuda

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/faults"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/protocol"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// The migration suite drives the daemon-to-daemon checkpoint stream end to
// end: a session's device state moves between two live TCP servers and the
// client resumes on the destination with zero replayed work. The chaos
// tests kill the source at every phase boundary of the migration dialogue
// and demand the session stays intact and bit-exact wherever it ends up.

// startMigrateServer is startTCPServer with server options.
func startMigrateServer(t *testing.T, opts ...ServerOption) (*Server, string, func()) {
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
	return srv, ln.Addr().String(), cleanup
}

// withMigrateChunk makes a daemon stream its outbound checkpoints in n-byte
// chunks, so a small session still crosses the wire as many chunk frames.
func withMigrateChunk(n uint32) ServerOption {
	return func(s *Server) { s.migrateChunk = n }
}

// switcher is a re-pointable dial target: the test plays broker, re-aiming
// the client's reconnect dialer at the destination after a migration.
type switcher struct{ addr atomic.Value }

func newSwitcher(addr string) *switcher {
	sw := &switcher{}
	sw.addr.Store(addr)
	return sw
}

func (sw *switcher) point(addr string) { sw.addr.Store(addr) }

func (sw *switcher) dial() (transport.Conn, error) {
	return transport.DialTCP(sw.addr.Load().(string))
}

// dialTo returns a clean dial function for a migration stream.
func dialTo(addr string) func() (transport.Conn, error) {
	return func() (transport.Conn, error) { return transport.DialTCP(addr) }
}

// openSwitchClient opens a durable retrying client whose reconnects follow
// the switcher's current target.
func openSwitchClient(t *testing.T, sw *switcher, module []byte, extra ...ClientOption) *Client {
	t.Helper()
	conn, err := sw.dial()
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]ClientOption{
		WithRetry(8, 200*time.Microsecond),
		WithReconnect(sw.dial),
	}, extra...)
	client, err := Open(conn, module, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// registryLen counts the server's live durable sessions: the registry
// holds no destroyed one.
func registryLen(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.registry)
}

// waitSettled polls until the server holds exactly want live sessions, all
// parked. A destination settles asynchronously after a killed migration:
// the source observes the dead connection and returns before the
// destination's handler has aborted its partial state (or parked its
// committed copy), so assertions about the destination must wait.
func waitSettled(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n, parked := 0, true
		for _, sess := range srv.registry {
			if !sess.destroyed {
				n++
				if sess.attached {
					parked = false
				}
			}
		}
		srv.mu.Unlock()
		if n == want && parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never settled at %d parked sessions (have %d, parked=%v)", want, n, parked)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stagedWorkload is a case-study workload split in two so a migration can
// land between its halves: stage1 builds device state on the source, stage2
// finishes the computation and reads the result back — on the destination.
type stagedWorkload struct {
	stage1 func(t *testing.T, c *Client) []cudart.DevicePtr
	stage2 func(t *testing.T, c *Client, ptrs []cudart.DevicePtr) []byte
}

func (w stagedWorkload) run(t *testing.T, c *Client) []byte {
	t.Helper()
	return w.stage2(t, c, w.stage1(t, c))
}

// mmStaged splits the paper's matrix-multiply case study: inputs land on
// the device before the migration, the sgemm launch and readback run after.
func mmStaged(seed int64) stagedWorkload {
	const m = 32
	return stagedWorkload{
		stage1: func(t *testing.T, c *Client) []cudart.DevicePtr {
			t.Helper()
			rng := rand.New(rand.NewSource(seed))
			a := make([]float32, m*m)
			b := make([]float32, m*m)
			for i := range a {
				a[i] = rng.Float32()
				b[i] = rng.Float32()
			}
			nbytes := uint32(4 * m * m)
			ptrs := make([]cudart.DevicePtr, 3)
			for i := range ptrs {
				p, err := c.Malloc(nbytes)
				if err != nil {
					t.Fatalf("malloc: %v", err)
				}
				ptrs[i] = p
			}
			if err := c.MemcpyToDevice(ptrs[0], cudart.Float32Bytes(a)); err != nil {
				t.Fatalf("copy A: %v", err)
			}
			if err := c.MemcpyToDevice(ptrs[1], cudart.Float32Bytes(b)); err != nil {
				t.Fatalf("copy B: %v", err)
			}
			return ptrs
		},
		stage2: func(t *testing.T, c *Client, ptrs []cudart.DevicePtr) []byte {
			t.Helper()
			// The first call after a migration may land on the quiesce-closed
			// connection; sgemm overwrites C, so insisting is overwrite-safe.
			insist(t, "sgemm launch", func() error {
				return c.Launch(kernels.SgemmKernel, cudart.Dim3{X: 2, Y: 2}, cudart.Dim3{X: 16, Y: 16}, 0,
					gpu.PackParams(uint32(ptrs[0]), uint32(ptrs[1]), uint32(ptrs[2]), m))
			})
			out := make([]byte, 4*m*m)
			if err := c.MemcpyToHost(out, ptrs[2]); err != nil {
				t.Fatalf("copy C: %v", err)
			}
			return out
		},
	}
}

// fftStaged splits the batched-FFT case study the other way around: the
// transform has already run when the migration strikes, so the checkpoint
// must carry the computed spectrum bit-exactly.
func fftStaged(seed int64) stagedWorkload {
	const batch = 4
	const points = 512
	return stagedWorkload{
		stage1: func(t *testing.T, c *Client) []cudart.DevicePtr {
			t.Helper()
			rng := rand.New(rand.NewSource(seed))
			signal := make([]complex64, batch*points)
			for i := range signal {
				signal[i] = complex(rng.Float32()*2-1, rng.Float32()*2-1)
			}
			data := cudart.Complex64Bytes(signal)
			ptr, err := c.Malloc(uint32(len(data)))
			if err != nil {
				t.Fatalf("malloc: %v", err)
			}
			if err := c.MemcpyToDevice(ptr, data); err != nil {
				t.Fatalf("copy signal: %v", err)
			}
			if err := c.Launch(kernels.FFTKernel, cudart.Dim3{X: batch}, cudart.Dim3{X: 64}, 0,
				gpu.PackParams(uint32(ptr), batch, 0)); err != nil {
				t.Fatalf("fft launch: %v", err)
			}
			return []cudart.DevicePtr{ptr}
		},
		stage2: func(t *testing.T, c *Client, ptrs []cudart.DevicePtr) []byte {
			t.Helper()
			out := make([]byte, 4*2*batch*points)
			if err := c.MemcpyToHost(out, ptrs[0]); err != nil {
				t.Fatalf("copy spectrum: %v", err)
			}
			return out
		},
	}
}

// goldenStaged runs a staged workload over a clean single server.
func goldenStaged(t *testing.T, module []byte, w stagedWorkload) []byte {
	t.Helper()
	_, addr, cleanup := startTCPServer(t)
	defer cleanup()
	client := openChaosClient(t, addr, nil, module)
	defer client.Close()
	return w.run(t, client)
}

// TestMigrateSessionRoundTrip live-migrates an attached session between two
// TCP daemons mid-workload: the client keeps its handle, the switcher plays
// broker, and both case studies must finish bit-exact with the unmigrated
// golden run — with every migration counter accounting for the move.
func TestMigrateSessionRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		module []byte
		w      stagedWorkload
	}{
		{"mm", moduleImage(t, calib.MM), mmStaged(11)},
		{"fft", moduleImage(t, calib.FFT), fftStaged(11)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := goldenStaged(t, tc.module, tc.w)

			src, srcAddr, cleanupSrc := startMigrateServer(t)
			defer cleanupSrc()
			dst, dstAddr, cleanupDst := startMigrateServer(t)
			defer cleanupDst()
			sw := newSwitcher(srcAddr)
			client := openSwitchClient(t, sw, tc.module)
			defer client.Close()

			ptrs := tc.w.stage1(t, client)
			id := client.SessionID()
			if id == 0 {
				t.Fatal("reconnecting client negotiated no durable session")
			}
			n, err := src.MigrateSession(id, dialTo(dstAddr))
			if err != nil {
				t.Fatalf("migrate: %v", err)
			}
			if n <= 0 {
				t.Fatalf("migration streamed %d bytes", n)
			}
			sw.point(dstAddr)
			got := tc.w.stage2(t, client, ptrs)
			if !bytes.Equal(got, want) {
				t.Fatal("result diverged across migration")
			}

			ss, ds := src.Stats(), dst.Stats()
			if ss.Migrations != 1 || ss.MigrationBytes != n || ss.MigrationFailures != 0 {
				t.Fatalf("source stats %+v", ss)
			}
			if ds.RestoreFromCheckpoint != 1 || ds.Reattaches != 1 {
				t.Fatalf("destination stats %+v", ds)
			}
			if registryLen(src) != 0 || registryLen(dst) != 1 {
				t.Fatalf("session lives on %d src / %d dst copies", registryLen(src), registryLen(dst))
			}
			// Zero replay: the one reconnect reattached; nothing re-executed.
			if cs := client.Stats(); cs.Reconnects != 1 || cs.Migrations != 0 {
				t.Fatalf("client stats %+v", cs)
			}
		})
	}
}

// TestMigrateSessionShapes round-trips the session states the checkpoint
// format must carry faithfully: an empty session, allocations spread across
// devices, in-flight async work, and a quota charged to the brim.
func TestMigrateSessionShapes(t *testing.T) {
	module := moduleImage(t, calib.MM)
	pattern := func(n int, seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	readback := func(t *testing.T, c *Client, ptr cudart.DevicePtr, want []byte) {
		t.Helper()
		got := make([]byte, len(want))
		if err := c.MemcpyToHost(got, ptr); err != nil {
			t.Fatalf("readback: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("device contents diverged across migration")
		}
	}
	quotaLimit := 2 * gpu.AllocCharge(1024)

	cases := []struct {
		name string
		opts func() []ServerOption
		// setup builds pre-migration state and returns the post-migration
		// verifier.
		setup func(t *testing.T, c *Client) func(t *testing.T, c *Client)
	}{
		{
			name: "empty-session",
			setup: func(t *testing.T, c *Client) func(*testing.T, *Client) {
				return func(t *testing.T, c *Client) {
					// An empty checkpoint still restores a usable context.
					data := pattern(256, 1)
					ptr := insistMalloc(t, c, 256)
					if err := c.MemcpyToDevice(ptr, data); err != nil {
						t.Fatalf("post-migration memcpy: %v", err)
					}
					readback(t, c, ptr, data)
				}
			},
		},
		{
			name: "multi-device-allocations",
			opts: func() []ServerOption {
				return []ServerOption{WithDevices(gpu.New(gpu.Config{Clock: vclock.NewWall()}))}
			},
			setup: func(t *testing.T, c *Client) func(*testing.T, *Client) {
				d0, d1 := pattern(1024, 2), pattern(2048, 3)
				p0, err := c.Malloc(1024)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.MemcpyToDevice(p0, d0); err != nil {
					t.Fatal(err)
				}
				if err := c.SetDevice(1); err != nil {
					t.Fatal(err)
				}
				p1, err := c.Malloc(2048)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.MemcpyToDevice(p1, d1); err != nil {
					t.Fatal(err)
				}
				return func(t *testing.T, c *Client) {
					// The checkpoint restores device 1 as current.
					readback(t, c, p1, d1)
					if err := c.SetDevice(0); err != nil {
						t.Fatalf("set device 0: %v", err)
					}
					readback(t, c, p0, d0)
				}
			},
		},
		{
			name: "pending-async-work",
			setup: func(t *testing.T, c *Client) func(*testing.T, *Client) {
				data := pattern(2048, 4)
				ptr, err := c.Malloc(2048)
				if err != nil {
					t.Fatal(err)
				}
				stream, err := c.StreamCreate()
				if err != nil {
					t.Fatal(err)
				}
				if err := c.MemcpyToDeviceAsync(ptr, data, stream); err != nil {
					t.Fatal(err)
				}
				ev, err := c.EventCreate()
				if err != nil {
					t.Fatal(err)
				}
				if err := c.EventRecord(ev, stream); err != nil {
					t.Fatal(err)
				}
				// No synchronization: the stream and event timelines migrate
				// with work still notionally in flight.
				return func(t *testing.T, c *Client) {
					if err := c.StreamSynchronize(stream); err != nil {
						t.Fatalf("stream sync after migration: %v", err)
					}
					if err := c.EventSynchronize(ev); err != nil {
						t.Fatalf("event sync after migration: %v", err)
					}
					readback(t, c, ptr, data)
				}
			},
		},
		{
			name: "quota-at-limit",
			opts: func() []ServerOption {
				return []ServerOption{WithSessionMemoryLimit(quotaLimit)}
			},
			setup: func(t *testing.T, c *Client) func(*testing.T, *Client) {
				data := pattern(1024, 5)
				p1, err := c.Malloc(1024)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.MemcpyToDevice(p1, data); err != nil {
					t.Fatal(err)
				}
				p2, err := c.Malloc(1024)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Malloc(1024); !errors.Is(err, cudart.ErrorMemoryAllocation) {
					t.Fatalf("over-quota malloc before migration: %v", err)
				}
				return func(t *testing.T, c *Client) {
					// The idempotent readback heals the connection first, so
					// the malloc's refusal below is the quota speaking.
					readback(t, c, p1, data)
					// Quota accounting derives from the restored allocations,
					// so the limit still binds on the destination.
					if _, err := c.Malloc(1024); !errors.Is(err, cudart.ErrorMemoryAllocation) {
						t.Fatalf("over-quota malloc after migration: %v", err)
					}
					if err := c.Free(p2); err != nil {
						t.Fatalf("free: %v", err)
					}
					if _, err := c.Malloc(1024); err != nil {
						t.Fatalf("malloc inside freed quota: %v", err)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var srcOpts, dstOpts []ServerOption
			if tc.opts != nil {
				srcOpts, dstOpts = tc.opts(), tc.opts()
			}
			src, srcAddr, cleanupSrc := startMigrateServer(t, srcOpts...)
			defer cleanupSrc()
			dst, dstAddr, cleanupDst := startMigrateServer(t, dstOpts...)
			defer cleanupDst()
			sw := newSwitcher(srcAddr)
			client := openSwitchClient(t, sw, module)
			defer client.Close()

			verify := tc.setup(t, client)
			n, err := src.MigrateSession(client.SessionID(), dialTo(dstAddr))
			if err != nil {
				t.Fatalf("migrate: %v", err)
			}
			sw.point(dstAddr)
			verify(t, client)

			if ss := src.Stats(); ss.Migrations != 1 || ss.MigrationBytes != n {
				t.Fatalf("source stats %+v", ss)
			}
			if ds := dst.Stats(); ds.RestoreFromCheckpoint != 1 {
				t.Fatalf("destination stats %+v", ds)
			}
		})
	}
}

// TestMigrateBatchDedupWindowSurvives checks exactly-once execution across
// a migration: the batch sequence/codes window travels in the checkpoint,
// so a batch replayed against the destination is answered from remembered
// codes without re-executing — proven by replaying a non-idempotent FFT
// launch whose double execution would change the spectrum.
func TestMigrateBatchDedupWindowSurvives(t *testing.T) {
	module := moduleImage(t, calib.FFT)
	src, srcAddr, cleanupSrc := startMigrateServer(t)
	defer cleanupSrc()
	dst, dstAddr, cleanupDst := startMigrateServer(t)
	defer cleanupDst()
	sw := newSwitcher(srcAddr)
	client := openSwitchClient(t, sw, module, WithBatching(0, 0))
	defer client.Close()

	const batch = 4
	const points = 512
	rng := rand.New(rand.NewSource(13))
	signal := make([]complex64, batch*points)
	for i := range signal {
		signal[i] = complex(rng.Float32()*2-1, rng.Float32()*2-1)
	}
	data := cudart.Complex64Bytes(signal)
	ptr, err := client.Malloc(uint32(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDevice(ptr, data); err != nil {
		t.Fatal(err)
	}
	launch := &protocol.LaunchRequest{
		GridDim:  [2]uint32{batch, 1},
		BlockDim: [3]uint32{64, 1, 1},
		Name:     kernels.FFTKernel,
		Params:   gpu.PackParams(uint32(ptr), batch, 0),
	}
	// The launch coalesces into a batch that the readback's sync point
	// flushes.
	if err := client.Launch(kernels.FFTKernel, cudart.Dim3{X: batch}, cudart.Dim3{X: 64}, 0, launch.Params); err != nil {
		t.Fatal(err)
	}
	spectrum := make([]byte, len(data))
	if err := client.MemcpyToHost(spectrum, ptr); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(spectrum, data) {
		t.Fatal("batched fft launch never executed")
	}
	seq := client.batchSeq
	if seq == 0 {
		t.Fatal("no batch was flushed")
	}

	id := client.SessionID()
	if _, err := src.MigrateSession(id, dialTo(dstAddr)); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	sw.point(dstAddr)
	if err := client.DeviceSynchronize(); err != nil {
		t.Fatalf("reattach at destination: %v", err)
	}

	// The restored session's dedup window matches the source's.
	dst.mu.Lock()
	sess := dst.registry[id]
	gotSeq, gotCodes := sess.lastBatchSeq, append([]uint32(nil), sess.lastBatchCodes...)
	dst.mu.Unlock()
	if gotSeq != seq {
		t.Fatalf("restored batch seq %d, want %d", gotSeq, seq)
	}
	if len(gotCodes) != 1 || gotCodes[0] != 0 {
		t.Fatalf("restored batch codes %v", gotCodes)
	}

	// Replay the flushed batch — as a client whose response was lost in the
	// cutover would. The destination must answer from the migrated window
	// without running the transform again.
	if err := client.conn.Send(&protocol.BatchRequest{Seq: seq, Subs: [][]byte{launch.Encode(nil)}}); err != nil {
		t.Fatal(err)
	}
	raw, err := client.conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.DecodeBatchResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != 0 || len(resp.Codes) != 1 || resp.Codes[0] != 0 {
		t.Fatalf("replayed batch response %+v", resp)
	}
	if ds := dst.Stats(); ds.BatchReplays != 1 {
		t.Fatalf("destination stats %+v", ds)
	}
	after := make([]byte, len(data))
	if err := client.MemcpyToHost(after, ptr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, spectrum) {
		t.Fatal("replayed batch re-executed the fft: spectrum changed")
	}
}

// TestMigrateRedirect pins the client to the source past the migration: raw
// reattaches get the typed CodeSessionMigrated redirect, the client surfaces
// ErrSessionMigrated without latching the session lost, and re-pointing the
// dialer heals everything with the data intact.
func TestMigrateRedirect(t *testing.T) {
	module := moduleImage(t, calib.MM)
	src, srcAddr, cleanupSrc := startMigrateServer(t)
	defer cleanupSrc()
	dst, dstAddr, cleanupDst := startMigrateServer(t)
	defer cleanupDst()
	sw := newSwitcher(srcAddr)
	client := openSwitchClient(t, sw, module, WithRetry(3, 100*time.Microsecond))
	defer client.Close()

	data := []byte{9, 8, 7, 6, 5, 4, 3, 2}
	ptr, err := client.Malloc(uint32(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDevice(ptr, data); err != nil {
		t.Fatal(err)
	}
	id := client.SessionID()
	if _, err := src.MigrateSession(id, dialTo(dstAddr)); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// A raw reattach at the source gets the typed redirect.
	conn, err := transport.DialTCP(srcAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&protocol.ReattachRequest{Session: id}); err != nil {
		t.Fatal(err)
	}
	raw, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := protocol.DecodeReattachResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != protocol.CodeSessionMigrated {
		t.Fatalf("reattach answered %d, want CodeSessionMigrated", resp.Err)
	}
	_ = conn.Close()

	// The still-mispointed client surfaces the redirect as a typed error.
	out := make([]byte, len(data))
	err = client.MemcpyToHost(out, ptr)
	if err == nil {
		t.Fatal("operation succeeded against a migrated-away session")
	}
	if !errors.Is(err, ErrSessionMigrated) {
		t.Fatalf("error %v does not wrap ErrSessionMigrated", err)
	}
	if cs := client.Stats(); cs.Migrations == 0 {
		t.Fatalf("client never counted the redirect: %+v", cs)
	}

	// Re-pointing the route heals the session — same allocation, same bytes,
	// nothing replayed.
	sw.point(dstAddr)
	if err := client.MemcpyToHost(out, ptr); err != nil {
		t.Fatalf("readback after re-point: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("device contents diverged across redirect")
	}
	if ds := dst.Stats(); ds.Reattaches != 1 {
		t.Fatalf("destination stats %+v", ds)
	}
}

// TestMigrateClaimErrors covers the checkpoint/migrate claim refusals: an
// attached session is busy, an unknown id refuses outright, and a migrated
// id answers with the typed redirect error on every later claim.
func TestMigrateClaimErrors(t *testing.T) {
	module := moduleImage(t, calib.MM)
	src, srcAddr, cleanupSrc := startMigrateServer(t)
	defer cleanupSrc()
	dst, dstAddr, cleanupDst := startMigrateServer(t)
	defer cleanupDst()
	sw := newSwitcher(srcAddr)
	client := openSwitchClient(t, sw, module)
	defer client.Close()

	id := client.SessionID()
	if got := src.DurableSessions(); len(got) != 1 || got[0] != id {
		t.Fatalf("durable sessions %v, want [%d]", got, id)
	}
	if _, err := src.CheckpointTo(id, dialTo(dstAddr)); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("checkpoint of attached session: %v", err)
	}
	if _, err := src.CheckpointTo(id+100, dialTo(dstAddr)); err == nil || errors.Is(err, ErrServerBusy) || errors.Is(err, ErrSessionMigrated) {
		t.Fatalf("checkpoint of unknown session: %v", err)
	}
	if _, err := src.MigrateSession(id, dialTo(dstAddr)); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if _, err := src.CheckpointTo(id, dialTo(dstAddr)); !errors.Is(err, ErrSessionMigrated) {
		t.Fatalf("checkpoint of migrated session: %v", err)
	}
	if _, err := src.MigrateSession(id, dialTo(dstAddr)); !errors.Is(err, ErrSessionMigrated) {
		t.Fatalf("re-migrate of migrated session: %v", err)
	}
	if len(src.DurableSessions()) != 0 {
		t.Fatalf("source still lists sessions: %v", src.DurableSessions())
	}
	if got := dst.DurableSessions(); len(got) != 1 || got[0] != id {
		t.Fatalf("destination sessions %v, want [%d]", got, id)
	}
	// Only migration attempts count as failures; bare checkpoint claim
	// refusals are the caller's problem.
	if ss := src.Stats(); ss.MigrationFailures != 1 {
		t.Fatalf("refused re-migrate never counted: %+v", ss)
	}
}

// TestMigrateChaosKillsEveryPhase is the migration acceptance chaos test:
// the source daemon's transfer connection is killed at every operation of
// the migration dialogue — hello, begin, each chunk, commit, commit-ack.
// After every kill the session must still be intact exactly once somewhere,
// a clean retry must move it, and the matrix-multiply must finish bit-exact
// with the golden run.
func TestMigrateChaosKillsEveryPhase(t *testing.T) {
	module := moduleImage(t, calib.MM)
	w := mmStaged(23)
	const chunkSize = 4096
	want := goldenStaged(t, module, w)

	// Dry run to learn the dialogue's chunk count for this state shape.
	chunks := func() int {
		src, srcAddr, cleanupSrc := startMigrateServer(t, withMigrateChunk(chunkSize))
		defer cleanupSrc()
		_, dstAddr, cleanupDst := startMigrateServer(t)
		defer cleanupDst()
		sw := newSwitcher(srcAddr)
		client := openSwitchClient(t, sw, module)
		defer client.Close()
		w.stage1(t, client)
		n, err := src.MigrateSession(client.SessionID(), dialTo(dstAddr))
		if err != nil {
			t.Fatalf("dry-run migrate: %v", err)
		}
		return int(protocol.Chunks(uint32(n), chunkSize))
	}()
	if chunks < 2 {
		t.Fatalf("state too small for a chunked stream: %d chunks", chunks)
	}

	for op := 0; op < faults.MigrateOps(chunks); op++ {
		t.Run(fmt.Sprintf("reset-at-op-%d", op), func(t *testing.T) {
			src, srcAddr, cleanupSrc := startMigrateServer(t, withMigrateChunk(chunkSize))
			defer cleanupSrc()
			dst, dstAddr, cleanupDst := startMigrateServer(t)
			defer cleanupDst()
			sw := newSwitcher(srcAddr)
			client := openSwitchClient(t, sw, module)
			defer client.Close()

			ptrs := w.stage1(t, client)
			id := client.SessionID()
			plan := faults.MigrateResetAt(op)
			if _, err := src.MigrateSession(id, faultyDialer(dstAddr, plan)); err == nil {
				t.Fatal("migration survived an injected connection kill")
			}
			if plan.Injected() == 0 {
				t.Fatalf("kill never fired; migration op indices drifted (history %v)", plan.History())
			}
			if ss := src.Stats(); ss.MigrationFailures == 0 || ss.Migrations != 0 {
				t.Fatalf("source stats after failed migration: %+v", ss)
			}
			if registryLen(src) != 1 {
				t.Fatal("failed migration destroyed the source session")
			}
			// Before the commit frame lands the destination holds nothing; a
			// kill of the commit acknowledgement alone leaves a committed
			// standby copy there — replaceable, never client-visible.
			wantDst := 0
			if op == faults.MigrateOpCommitAck(chunks) {
				wantDst = 1
			}
			waitSettled(t, dst, wantDst)

			// A clean retry moves the session; the workload finishes bit-exact.
			if _, err := src.MigrateSession(id, dialTo(dstAddr)); err != nil {
				t.Fatalf("clean retry after kill at op %d: %v", op, err)
			}
			sw.point(dstAddr)
			if got := w.stage2(t, client, ptrs); !bytes.Equal(got, want) {
				t.Fatalf("result diverged after kill at op %d (history %v)", op, plan.History())
			}
			if registryLen(dst) != 1 || registryLen(src) != 0 {
				t.Fatalf("session copies after retry: src=%d dst=%d", registryLen(src), registryLen(dst))
			}
		})
	}
}

// TestRestoreHelloOutlastsAnAbandonedAttempt: the destination still holds
// an attempt for the session — its source gave up, but the destination has
// not yet received on that connection again to find out — when a retry says
// hello. The hello is refused busy and repeated; by then the abandoned
// attempt has gone, and the session moves. (This is the window behind the
// "restore refused: server busy" failures of the chaos test's
// reset-at-op-1, where waitSettled could pass before the destination had
// registered the killed attempt at all.)
func TestRestoreHelloOutlastsAnAbandonedAttempt(t *testing.T) {
	module := moduleImage(t, calib.MM)
	w := mmStaged(5)
	want := goldenStaged(t, module, w)
	src, srcAddr, cleanupSrc := startMigrateServer(t)
	defer cleanupSrc()
	dst, dstAddr, cleanupDst := startMigrateServer(t)
	defer cleanupDst()
	sw := newSwitcher(srcAddr)
	client := openSwitchClient(t, sw, module)
	defer client.Close()
	ptrs := w.stage1(t, client)
	id := client.SessionID()

	abandoned, err := transport.DialTCP(dstAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := abandoned.Send(&protocol.SessionRestoreRequest{Session: id}); err != nil {
		t.Fatal(err)
	}
	if err := recvAck(abandoned, "restore"); err != nil {
		t.Fatal(err)
	}
	dials := 0
	dial := func() (transport.Conn, error) {
		if dials++; dials == 2 {
			// The first hello has been refused. Now the destination finds
			// the abandoned attempt's connection dead and drops it.
			_ = abandoned.Close()
			waitSettled(t, dst, 0)
		}
		return transport.DialTCP(dstAddr)
	}
	if _, err := src.MigrateSession(id, dial); err != nil {
		t.Fatalf("migrate past an abandoned attempt: %v", err)
	}
	if dials != 2 {
		t.Fatalf("%d dials, want the refused hello and one more", dials)
	}
	sw.point(dstAddr)
	if got := w.stage2(t, client, ptrs); !bytes.Equal(got, want) {
		t.Fatal("result diverged")
	}
}

// TestMigrateScriptedFaults drives the three named failure injectors —
// die-after-begin, truncated chunk, stall before commit — against the FFT
// case study, whose computed spectrum must survive each failed transfer and
// arrive bit-exact after the retry.
func TestMigrateScriptedFaults(t *testing.T) {
	module := moduleImage(t, calib.FFT)
	w := fftStaged(9)
	const chunkSize = 4096
	want := goldenStaged(t, module, w)

	chunks := func() int {
		src, srcAddr, cleanupSrc := startMigrateServer(t, withMigrateChunk(chunkSize))
		defer cleanupSrc()
		_, dstAddr, cleanupDst := startMigrateServer(t)
		defer cleanupDst()
		sw := newSwitcher(srcAddr)
		client := openSwitchClient(t, sw, module)
		defer client.Close()
		w.stage1(t, client)
		n, err := src.MigrateSession(client.SessionID(), dialTo(dstAddr))
		if err != nil {
			t.Fatalf("dry-run migrate: %v", err)
		}
		return int(protocol.Chunks(uint32(n), chunkSize))
	}()

	cases := []struct {
		name string
		plan *faults.Plan
	}{
		{"die-after-begin", faults.MigrateDieAfterBegin()},
		{"truncate-chunk", faults.MigrateTruncateChunk(1)},
		{"stall-before-commit", faults.MigrateStallBeforeCommit(chunks, time.Millisecond)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, srcAddr, cleanupSrc := startMigrateServer(t, withMigrateChunk(chunkSize))
			defer cleanupSrc()
			dst, dstAddr, cleanupDst := startMigrateServer(t)
			defer cleanupDst()
			sw := newSwitcher(srcAddr)
			client := openSwitchClient(t, sw, module)
			defer client.Close()

			ptrs := w.stage1(t, client)
			id := client.SessionID()
			if _, err := src.MigrateSession(id, faultyDialer(dstAddr, tc.plan)); err == nil {
				t.Fatal("migration survived the scripted fault")
			}
			if tc.plan.Injected() == 0 {
				t.Fatal("scripted fault never fired; op indices drifted")
			}
			if registryLen(src) != 1 {
				t.Fatal("failed migration destroyed the source session")
			}
			waitSettled(t, dst, 0)
			if _, err := src.MigrateSession(id, dialTo(dstAddr)); err != nil {
				t.Fatalf("clean retry: %v", err)
			}
			sw.point(dstAddr)
			if got := w.stage2(t, client, ptrs); !bytes.Equal(got, want) {
				t.Fatalf("spectrum diverged (history %v)", tc.plan.History())
			}
		})
	}
}

// TestStandbyCheckpointFailover exercises the periodic standby path: a
// parked session's checkpoint streams to a peer, a reattach-and-rewrite
// refreshes the copy, and when the source dies the client resumes on the
// peer from the fresh checkpoint — reattach instead of replay.
func TestStandbyCheckpointFailover(t *testing.T) {
	module := moduleImage(t, calib.MM)
	dst, dstAddr, cleanupDst := startMigrateServer(t)
	defer cleanupDst()
	src, srcAddr, cleanupSrc := startMigrateServer(t, WithStandbyPeer(dialTo(dstAddr), 5*time.Millisecond))
	srcClosed := false
	defer func() {
		if !srcClosed {
			cleanupSrc()
		}
	}()
	sw := newSwitcher(srcAddr)
	client := openSwitchClient(t, sw, module)
	defer client.Close()

	waitRestores := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for dst.Stats().RestoreFromCheckpoint < n {
			if time.Now().After(deadline) {
				t.Fatalf("standby copy #%d never arrived: %+v", n, dst.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	stale := []byte("generation-one-state")
	ptr, err := client.Malloc(uint32(len(stale)))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MemcpyToDevice(ptr, stale); err != nil {
		t.Fatal(err)
	}
	// Park by dropping the connection; the sweep copies the parked session.
	_ = client.conn.Close()
	waitRestores(1)

	// Reattach, mutate, re-park: the next sweep must refresh the standby.
	fresh := []byte("generation-two-state")
	if err := client.MemcpyToDevice(ptr, fresh); err != nil {
		t.Fatalf("rewrite after reattach: %v", err)
	}
	_ = client.conn.Close()
	waitRestores(2)

	// The source dies; the re-pointed client resumes on the peer and must
	// see the fresh generation, not the stale first copy.
	cleanupSrc()
	srcClosed = true
	sw.point(dstAddr)
	out := make([]byte, len(fresh))
	if err := client.MemcpyToHost(out, ptr); err != nil {
		t.Fatalf("readback on standby peer: %v", err)
	}
	if !bytes.Equal(out, fresh) {
		t.Fatalf("standby served %q, want %q", out, fresh)
	}
	if ds := dst.Stats(); ds.Reattaches != 1 || ds.RestoreFromCheckpoint < 2 {
		t.Fatalf("destination stats %+v", ds)
	}
	if ss := src.Stats(); ss.MigrationBytes == 0 || ss.Migrations != 0 {
		t.Fatalf("standby copies miscounted: %+v", ss)
	}
}

// TestRestoreRefusesACommitMiscountingItsChunks: a hand-driven restore
// connection streams a whole, well-formed checkpoint and commits it with
// its true digest but one chunk more than it sent. The destination must
// refuse the commit — as it refuses a chunked copy's End that miscounts —
// and keep no session; the same stream committed with its true count is
// restored.
func TestRestoreRefusesACommitMiscountingItsChunks(t *testing.T) {
	dst, dstAddr, cleanup := startMigrateServer(t)
	defer cleanup()
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		t.Fatal(err)
	}
	const id, chunkSize = 7, 16
	payload := (&protocol.Checkpoint{Session: id, Module: mod.Name}).Encode(nil)
	total := uint32(len(payload))
	chunks := protocol.Chunks(total, chunkSize)
	for _, declared := range []uint32{chunks + 1, chunks} {
		conn, err := transport.DialTCP(dstAddr)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(&protocol.SessionRestoreRequest{Session: id}); err != nil {
			t.Fatal(err)
		}
		if err := recvAck(conn, "restore"); err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(&protocol.MigrateBeginRequest{Total: total, ChunkSize: chunkSize}); err != nil {
			t.Fatal(err)
		}
		if err := recvAck(conn, "migrate begin"); err != nil {
			t.Fatal(err)
		}
		for seq := uint32(0); seq < chunks; seq++ {
			data := payload[seq*chunkSize : min(total, (seq+1)*chunkSize)]
			if err := conn.Send(&protocol.Chunk{Kind: protocol.OpMigrateChunk, Seq: seq, Data: data}); err != nil {
				t.Fatal(err)
			}
		}
		commit := &protocol.MigrateCommitRequest{Chunks: declared, Digest: protocol.MigrateDigest(payload)}
		if err := conn.Send(commit); err != nil {
			t.Fatal(err)
		}
		err = recvAck(conn, "migrate commit")
		_ = conn.Close()
		if declared != chunks {
			if err == nil {
				t.Fatalf("a commit declaring %d chunks of %d was accepted", declared, chunks)
			}
			waitSettled(t, dst, 0)
			continue
		}
		if err != nil {
			t.Fatalf("the true commit: %v", err)
		}
		waitSettled(t, dst, 1)
	}
}
