package broker

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/rcuda"
	"rcuda/internal/transport"
)

// withClientOptions adds options applied to every session the pool opens,
// after the pool's own retry default — so they can override it.
func withClientOptions(opts ...rcuda.ClientOption) Option {
	return func(pl *Pool) {
		base := pl.clientOpt
		pl.clientOpt = func(c *rcuda.Client) {
			base(c)
			for _, o := range opts {
				o(c)
			}
		}
	}
}

// mmPrepare stages the device half of an MM job without running it: the two
// seeded input matrices are uploaded and the result buffer is allocated. The
// returned pointers are live device state a migration must carry intact.
func mmPrepare(t *testing.T, rt cudart.Runtime, m int, seed int64) [3]cudart.DevicePtr {
	t.Helper()
	a, b := seededMatrices(m, seed)
	nbytes := uint32(4 * m * m)
	var ptrs [3]cudart.DevicePtr
	for i := range ptrs {
		p, err := rt.Malloc(nbytes)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	if err := rt.MemcpyToDevice(ptrs[0], cudart.Float32Bytes(a)); err != nil {
		t.Fatal(err)
	}
	if err := rt.MemcpyToDevice(ptrs[1], cudart.Float32Bytes(b)); err != nil {
		t.Fatal(err)
	}
	return ptrs
}

// mmFinish launches the multiply on the staged pointers and reads the result
// back — byte-compatible with runMMBytes for the golden comparison.
func mmFinish(t *testing.T, rt cudart.Runtime, m int, ptrs [3]cudart.DevicePtr) []byte {
	t.Helper()
	grid := cudart.Dim3{X: uint32(m / 16), Y: uint32(m / 16)}
	block := cudart.Dim3{X: 16, Y: 16}
	if err := rt.Launch(kernels.SgemmKernel, grid, block, 0,
		gpu.PackParams(uint32(ptrs[0]), uint32(ptrs[1]), uint32(ptrs[2]), uint32(m))); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*m*m)
	if err := rt.MemcpyToHost(out, ptrs[2]); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPoolMigrateMovesSession live-migrates a pool-placed session between
// two daemons mid-job: inputs staged on the source, result computed on the
// destination, bit-exact against a local run, with nothing replayed.
func TestPoolMigrateMovesSession(t *testing.T) {
	link := netsim.IB40G()
	a := newSimServer()
	b := newSimServer(rcuda.WithSessionIDBase(1 << 20))
	pool, err := New([]Endpoint{a.endpoint("a", link), b.endpoint("b", link)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const m, seed = 32, 41
	sess, err := pool.Open(moduleImage(t, calib.MM), JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Endpoint != "a" {
		t.Fatalf("session placed on %q, want the first endpoint", sess.Endpoint)
	}
	ptrs := mmPrepare(t, sess, m, seed)

	if err := pool.Migrate(sess, a.srv); err != nil {
		t.Fatal(err)
	}
	if sess.Endpoint != "b" || sess.idx != 1 || sess.route.current() != 1 {
		t.Fatalf("after migrate: endpoint %q idx %d route %d", sess.Endpoint, sess.idx, sess.route.current())
	}
	// The quiesce closed the session connection; lead with an idempotent op
	// so the retry machinery redials through the re-pointed route and
	// reattaches at the destination before the non-idempotent launch.
	if err := sess.DeviceSynchronize(); err != nil {
		t.Fatal(err)
	}
	out := mmFinish(t, sess, m, ptrs)
	if !bytes.Equal(out, goldenBytes(t, chaosJob{calib.MM, m, seed})) {
		t.Fatal("migrated result differs from the local run")
	}

	if ids := a.srv.DurableSessions(); len(ids) != 0 {
		t.Fatalf("source still holds sessions %v after migration", ids)
	}
	if ids := b.srv.DurableSessions(); len(ids) != 1 {
		t.Fatalf("destination holds %d sessions, want 1", len(ids))
	}
	if cs := sess.Stats(); cs.Reconnects != 1 {
		t.Fatalf("client stats = %+v, want exactly one reconnect", cs)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	ps := pool.Stats()
	if ps.Migrations != 1 || ps.MigrationBytes <= 0 || ps.MigrationFailures != 0 {
		t.Fatalf("pool migration stats = %+v", ps)
	}
	// The move itself: zero job replays, zero redial failovers.
	if ps.Failovers != 0 || ps.RestoreFromCheckpoint != 0 {
		t.Fatalf("migration was counted as a failover: %+v", ps)
	}
	if ss := a.srv.Stats(); ss.Migrations != 1 || ss.MigrationBytes != ps.MigrationBytes {
		t.Fatalf("source daemon stats = %+v", ss)
	}
	if ds := b.srv.Stats(); ds.RestoreFromCheckpoint != 1 || ds.Reattaches != 1 {
		t.Fatalf("destination daemon stats = %+v", ds)
	}
}

// TestPoolMigrateUnderLoad keeps a client hammering reads while its session
// is migrated out from under it. Every read must return the right bytes —
// served before the quiesce, refused-busy during it, healed at the
// destination after — and the pool must count zero failovers: nothing about
// the move replays work.
func TestPoolMigrateUnderLoad(t *testing.T) {
	link := netsim.IB40G()
	a := newSimServer()
	b := newSimServer(rcuda.WithSessionIDBase(1 << 20))
	pool, err := New(
		[]Endpoint{a.endpoint("a", link), b.endpoint("b", link)},
		// The default retry budget is sized for one redial, not for riding
		// out a whole migration window; give the client room to keep
		// retrying until the route is re-pointed.
		withClientOptions(rcuda.WithRetry(20, 200*time.Microsecond)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const m, seed = 32, 43
	sess, err := pool.Open(moduleImage(t, calib.MM), JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	ptrs := mmPrepare(t, sess, m, seed)
	aMat, _ := seededMatrices(m, seed)
	aRaw := cudart.Float32Bytes(aMat)

	// Only this goroutine touches the client; Migrate drives the daemons
	// and the placer, never the session's connection.
	done := make(chan struct{})
	stopped := make(chan struct{})
	var wg sync.WaitGroup
	var readbacks atomic.Int64
	var loopErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stopped)
		buf := make([]byte, len(aRaw))
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := sess.MemcpyToHost(buf, ptrs[0]); err != nil {
				loopErr = err
				return
			}
			if !bytes.Equal(buf, aRaw) {
				loopErr = fmt.Errorf("readback %d returned wrong bytes", readbacks.Load())
				return
			}
			readbacks.Add(1)
		}
	}()
	waitReads := func(past int64, when string) {
		deadline := time.Now().Add(5 * time.Second)
		for readbacks.Load() <= past {
			select {
			case <-stopped:
				wg.Wait()
				t.Fatalf("readback loop died %s: %v", when, loopErr)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("no readback completed %s", when)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	// At least one read must be served by the source before the move and
	// one by the destination after it, so the loop provably brackets the
	// migration window.
	waitReads(0, "before the migration")

	if err := pool.Migrate(sess, a.srv); err != nil {
		t.Fatal(err)
	}
	waitReads(readbacks.Load(), "after the migration")
	close(done)
	wg.Wait()
	if loopErr != nil {
		t.Fatalf("concurrent readback failed: %v", loopErr)
	}

	out := mmFinish(t, sess, m, ptrs)
	if !bytes.Equal(out, goldenBytes(t, chaosJob{calib.MM, m, seed})) {
		t.Fatal("result after migration under load differs from the local run")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	ps := pool.Stats()
	if ps.Migrations != 1 || ps.MigrationFailures != 0 {
		t.Fatalf("pool migration stats = %+v", ps)
	}
	if ps.Failovers != 0 {
		t.Fatalf("live ops during migration were replayed as failovers: %+v", ps)
	}
}

// TestPoolRouteFailoverToStandby kills a daemon that has been streaming
// standby checkpoints of its parked sessions to a peer: the client's next
// redial fails over through the route, reattaches to the restored copy on
// the peer, and reads its device state back intact — a restore, not a
// replay.
func TestPoolRouteFailoverToStandby(t *testing.T) {
	link := netsim.IB40G()
	b := newSimServer(rcuda.WithSessionIDBase(1 << 20))
	epB := b.endpoint("b", link)
	a := newSimServer(rcuda.WithStandbyPeer(epB.Dial, 2*time.Millisecond))
	epA := a.endpoint("a", link)

	// Record the connections endpoint a hands out, so the test can cut the
	// session's wire and force the server side to park it.
	var connMu sync.Mutex
	var conns []transport.Conn
	innerDial := epA.Dial
	epA.Dial = func() (transport.Conn, error) {
		conn, err := innerDial()
		if err != nil {
			return nil, err
		}
		connMu.Lock()
		conns = append(conns, conn)
		connMu.Unlock()
		return conn, nil
	}

	pool, err := New([]Endpoint{epA, epB})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const m, seed = 32, 47
	sess, err := pool.Open(moduleImage(t, calib.MM), JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Endpoint != "a" {
		t.Fatalf("session placed on %q, want the standby-enabled endpoint", sess.Endpoint)
	}
	ptrs := mmPrepare(t, sess, m, seed)
	golden := goldenBytes(t, chaosJob{calib.MM, m, seed})
	if out := mmFinish(t, sess, m, ptrs); !bytes.Equal(out, golden) {
		t.Fatal("pre-failover result differs from the local run")
	}

	// Cut the wire: the server sees the loss and parks the session, making
	// it eligible for the next standby sweep. The client does not find out
	// until its next operation.
	connMu.Lock()
	for _, conn := range conns {
		_ = conn.Close()
	}
	connMu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for b.srv.Stats().RestoreFromCheckpoint == 0 {
		if time.Now().After(deadline) {
			t.Fatal("standby sweep never copied the parked session to the peer")
		}
		time.Sleep(time.Millisecond)
	}

	// The daemon dies: dials refuse and the server goes away entirely.
	a.setDead(true)
	_ = a.srv.Close()

	// The next read hits the dead connection, redials, fails over to the
	// peer, and resumes from the restored copy with the result intact.
	out := make([]byte, 4*m*m)
	if err := sess.MemcpyToHost(out, ptrs[2]); err != nil {
		t.Fatalf("readback after failover: %v", err)
	}
	if !bytes.Equal(out, golden) {
		t.Fatal("restored session returned different result bytes")
	}
	if sess.route.current() != 1 {
		t.Fatalf("route still points at endpoint %d", sess.route.current())
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	ps := pool.Stats()
	if ps.RestoreFromCheckpoint != 1 {
		t.Fatalf("pool stats = %+v, want exactly one restore failover", ps)
	}
	// The session resumed from the checkpoint: no job was replayed and no
	// live migration ran.
	if ps.Failovers != 0 || ps.Migrations != 0 {
		t.Fatalf("restore was double-counted: %+v", ps)
	}
	if ds := b.srv.Stats(); ds.Reattaches != 1 || ds.RestoreFromCheckpoint == 0 {
		t.Fatalf("peer daemon stats = %+v", ds)
	}
}
