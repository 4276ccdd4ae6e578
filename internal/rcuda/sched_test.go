package rcuda

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/gpu"
	"rcuda/internal/protocol"
	"rcuda/internal/sched"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// TestClassifySchedOp pins the op table's scheduler column as the request
// loop reads it: session control, monitoring, and discovery bypass the
// device queue; everything that touches device state holds it for exactly
// one op.
func TestClassifySchedOp(t *testing.T) {
	cases := []struct {
		req   protocol.Request
		kind  sched.OpKind
		bytes int
		gated bool
	}{
		{&protocol.SessionHelloRequest{}, 0, 0, false},
		{&protocol.StatsQueryRequest{}, 0, 0, false},
		{&protocol.FinalizeRequest{}, 0, 0, false},
		{&protocol.ReattachRequest{Session: 1}, 0, 0, false},
		{&protocol.GetDeviceCountRequest{}, 0, 0, false},
		{&protocol.SetDeviceRequest{Device: 1}, 0, 0, false},
		{&protocol.GetDevicePropertiesRequest{}, 0, 0, false},
		{&protocol.LaunchRequest{Name: "k"}, sched.KindLaunch, 0, true},
		{&protocol.MemcpyToDeviceRequest{Data: make([]byte, 64)}, sched.KindCopy, 64, true},
		{&protocol.MemcpyToHostRequest{Size: 128}, sched.KindCopy, 128, true},
		{&protocol.MemcpyD2DRequest{Size: 32}, sched.KindCopy, 32, true},
		{&protocol.MemsetRequest{Size: 16}, sched.KindCopy, 16, true},
		{&protocol.MemcpyStreamBeginRequest{Total: 4096, ChunkSize: 256}, sched.KindCopy, 4096, true},
		{&protocol.SyncRequest{}, sched.KindSync, 0, true},
		{&protocol.BatchRequest{}, sched.KindBatch, 0, true},
		{&protocol.MallocRequest{Size: 8}, sched.KindOther, 0, true},
		{&protocol.EventCreateRequest{}, sched.KindOther, 0, true},
	}
	for _, tc := range cases {
		k, n := protocol.SchedCost(tc.req)
		kind, gated := schedKinds[k], k != protocol.SchedNone
		if gated != tc.gated || (gated && (kind != tc.kind || n != tc.bytes)) {
			t.Errorf("%v: classified (%v, %d, %v), want (%v, %d, %v)",
				tc.req.Op(), kind, n, gated, tc.kind, tc.bytes, tc.gated)
		}
	}
}

// TestClassWireMapping pins the wire-code translation both ways, including
// the unspecified-means-Batch default.
func TestClassWireMapping(t *testing.T) {
	for _, c := range []sched.Class{sched.Realtime, sched.Batch, sched.BestEffort} {
		if got := classFromWire(classToWire(c)); got != c {
			t.Errorf("class %v round-trips to %v", c, got)
		}
	}
	if got := classFromWire(protocol.SchedClassUnspecified); got != sched.Batch {
		t.Errorf("unspecified maps to %v, want Batch", got)
	}
}

// openSchedClient opens a plain TCP client with extra options (typically
// WithSchedClass).
func openSchedClient(t *testing.T, addr string, module []byte, opts ...ClientOption) *Client {
	t.Helper()
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, module, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// TestSchedulerServesWorkloads runs concurrent tenants of different
// classes through a WFQ-scheduled daemon: every workload must finish
// bit-exact with the unscheduled golden run, the per-class rows must
// account for the sessions and the ops they ran, and the stats probe must
// carry the class block.
func TestSchedulerServesWorkloads(t *testing.T) {
	module := moduleImage(t, calib.MM)
	want := func() []byte {
		_, addr, cleanup := startTCPServer(t)
		defer cleanup()
		client := openChaosClient(t, addr, nil, module)
		defer client.Close()
		return runMMWorkload(t, client, 7)
	}()

	srv, addr, cleanup := startMigrateServer(t,
		WithScheduler(sched.WFQ),
		WithClassWeights([sched.NumClasses]uint32{100, 10, 1}))
	defer cleanup()

	classes := []uint32{SchedRealtime, SchedBatch, SchedBestEffort, 0}
	var wg sync.WaitGroup
	results := make([][]byte, len(classes))
	for i, class := range classes {
		wg.Add(1)
		go func(i int, class uint32) {
			defer wg.Done()
			client := openSchedClient(t, addr, module, WithSchedClass(class, uint32(i+1)))
			defer client.Close()
			results[i] = runMMWorkload(t, client, 7)
		}(i, class)
	}
	wg.Wait()
	for i, got := range results {
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %d (class %d) diverged from the golden run", i, classes[i])
		}
	}

	// A finalize is one-way: Close returns before the handler detaches, so
	// the gauges drain asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	var snap StatsSnapshot
	for {
		snap = srv.StatsSnapshot()
		drained := true
		for _, cu := range snap.Classes {
			if cu.Sessions != 0 {
				drained = false
			}
		}
		if drained {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("class gauges never drained after close: %+v", snap.Classes)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if len(snap.Classes) != sched.NumClasses {
		t.Fatalf("snapshot has %d class rows, want %d", len(snap.Classes), sched.NumClasses)
	}
	var served uint64
	for _, cu := range snap.Classes {
		served += cu.Served
	}
	if served == 0 {
		t.Fatal("no ops passed through the scheduler")
	}
	// Realtime and Batch both ran tenants (the bare-hello tenant defaults
	// to Batch), so their rows must have grants.
	if snap.Classes[sched.Realtime].Served == 0 || snap.Classes[sched.Batch].Served == 0 {
		t.Fatalf("class rows missing grants: %+v", snap.Classes)
	}
}

// TestStatsProbeCarriesClassBlock checks the wire side: a stats probe of a
// scheduler-enabled daemon answers with the per-class trailer, and the
// attached-session gauges land in the right class rows.
func TestStatsProbeCarriesClassBlock(t *testing.T) {
	module := moduleImage(t, calib.MM)
	_, addr, cleanup := startMigrateServer(t, WithScheduler(sched.WFQ))
	defer cleanup()

	client := openSchedClient(t, addr, module, WithSchedClass(SchedRealtime, 4))
	defer client.Close()
	if _, err := client.Malloc(64); err != nil {
		t.Fatal(err)
	}
	reply, err := client.QueryStats()
	if err != nil {
		t.Fatal(err)
	}
	if !reply.HasClasses {
		t.Fatal("scheduler-enabled daemon answered without the class block")
	}
	if got := reply.Classes[SchedRealtime-1].Sessions; got != 1 {
		t.Fatalf("realtime row counts %d sessions, want 1 (%+v)", got, reply.Classes)
	}
	if got := reply.Classes[SchedBatch-1].Sessions; got != 0 {
		t.Fatalf("batch row counts %d sessions, want 0 (%+v)", got, reply.Classes)
	}
}

// TestSchedulerOffKeepsLegacyReply pins back-compat: without WithScheduler
// the stats reply has no class block and the snapshot no class rows, so
// old brokers see byte-identical frames.
func TestSchedulerOffKeepsLegacyReply(t *testing.T) {
	module := moduleImage(t, calib.MM)
	srv, addr, cleanup := startTCPServer(t)
	defer cleanup()
	client := openChaosClient(t, addr, nil, module)
	defer client.Close()
	reply, err := client.QueryStats()
	if err != nil {
		t.Fatal(err)
	}
	if reply.HasClasses {
		t.Fatal("unscheduled daemon advertised a class block")
	}
	if snap := srv.StatsSnapshot(); snap.Classes != nil {
		t.Fatalf("unscheduled snapshot has class rows: %+v", snap.Classes)
	}
}

// TestSchedClassSurvivesMigration is the regression for the scheduling
// identity's migration path: a realtime tenant live-migrates mid-workload
// and must still be a realtime tenant on the destination — same class,
// same weight, counted in the destination's realtime gauge — with the
// workload finishing bit-exact.
func TestSchedClassSurvivesMigration(t *testing.T) {
	module := moduleImage(t, calib.MM)
	w := mmStaged(23)
	want := goldenStaged(t, module, w)

	src, srcAddr, cleanupSrc := startMigrateServer(t, WithScheduler(sched.WFQ))
	defer cleanupSrc()
	dst, dstAddr, cleanupDst := startMigrateServer(t, WithScheduler(sched.WFQ))
	defer cleanupDst()
	sw := newSwitcher(srcAddr)
	client := openSwitchClient(t, sw, module, WithSchedClass(SchedRealtime, 8))
	defer client.Close()

	ptrs := w.stage1(t, client)
	id := client.SessionID()
	if id == 0 {
		t.Fatal("no durable session")
	}
	sessionParams := func(s *Server) (sched.Class, uint32, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		sess, ok := s.registry[id]
		if !ok {
			return 0, 0, false
		}
		return sess.schedClass, sess.schedWeight, true
	}
	if class, weight, ok := sessionParams(src); !ok || class != sched.Realtime || weight != 8 {
		t.Fatalf("source session params (%v, %d, %v), want (Realtime, 8, true)", class, weight, ok)
	}

	if _, err := src.MigrateSession(id, dialTo(dstAddr)); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if class, weight, ok := sessionParams(dst); !ok || class != sched.Realtime || weight != 8 {
		t.Fatalf("restored session params (%v, %d, %v), want (Realtime, 8, true)", class, weight, ok)
	}

	sw.point(dstAddr)
	if got := w.stage2(t, client, ptrs); !bytes.Equal(got, want) {
		t.Fatal("result diverged across migration")
	}
	// The reattached session lands in the destination's realtime gauge and
	// its post-migration ops pass through the destination's queues.
	snap := dst.StatsSnapshot()
	if snap.Classes[sched.Realtime].Sessions != 1 {
		t.Fatalf("destination realtime gauge %d, want 1 (%+v)", snap.Classes[sched.Realtime].Sessions, snap.Classes)
	}
	if snap.Classes[sched.Realtime].Served == 0 {
		t.Fatalf("destination served no realtime ops: %+v", snap.Classes)
	}
}

// TestBareHelloKeepsDeclaredParams pins the unspecified semantics: after a
// session declares a class and weight, a later bare hello (class 0,
// weight 0) must not reset either.
func TestBareHelloKeepsDeclaredParams(t *testing.T) {
	srv := NewServer(gpu.New(gpu.Config{Clock: vclock.NewWall()}), WithScheduler(sched.WFQ))
	sess := &session{srv: srv, schedClass: sched.Batch}
	srv.applySchedParams(sess, SchedBestEffort, 3, false)
	if sess.schedClass != sched.BestEffort || sess.schedWeight != 3 {
		t.Fatalf("declared params not applied: (%v, %d)", sess.schedClass, sess.schedWeight)
	}
	srv.applySchedParams(sess, protocol.SchedClassUnspecified, 0, false)
	if sess.schedClass != sched.BestEffort || sess.schedWeight != 3 {
		t.Fatalf("bare hello reset params to (%v, %d)", sess.schedClass, sess.schedWeight)
	}
}
