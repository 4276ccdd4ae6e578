package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"sync"
	"time"

	"rcuda/internal/broker"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/loadgen"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/rcuda"
	"rcuda/internal/sched"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// workloads lists the eight workloads in reporting order. The why lines
// are the ones BENCHMARK.json carries.
func workloads() []*workload {
	return []*workload{
		{name: "rtt_small", setup: setupRTT,
			why: "null calls, 4 B each way: the smallest message, where codec, framing and dispatch are the whole cost"},
		{name: "memcpy_bulk", copyBytes: tcpCopyBytes, setup: func(e *env) (*round, error) { return setupMemcpy(e) },
			why: "16 MiB copies each way in one frame: bandwidth-bound, exercises payload copies, buffer pool, vectored framing"},
		{name: "memcpy_chunked", copyBytes: tcpCopyBytes, setup: func(e *env) (*round, error) {
			return setupMemcpy(e, rcuda.WithChunkedTransfers(1, protocol.DefaultChunkSize))
		},
			why: "the same copies as a 1 MiB chunk pipeline: a change that helps one transfer path and costs the other shows here"},
		{name: "infer_unbatched", setup: func(e *env) (*round, error) { return setupInfer(e) },
			why: "24-layer DNN request, about 30 round trips on a WFQ server: many small calls plus real device service"},
		{name: "infer_batched", setup: func(e *env) (*round, error) { return setupInfer(e, rcuda.WithBatching(0, 0)) },
			why: "the same requests with batching, 4 round trips: the batch encoder, flush, dedup and query cache the unbatched run bypasses"},
		{name: "session_churn", setup: setupChurn,
			why: "open, malloc, free, close through the broker over two daemons: placer pick, dial, hello, admission, teardown"},
		{name: "fleet_place", setup: setupFleet,
			why: "host time of two loadgen fleet simulations, no socket: placer, autoscaler and event loop speed"},
		{name: "sim_memcpy", copyBytes: simCopyBytes, setup: setupSimMemcpy,
			why: "16 MiB copies through the in-process simulated pipe every repro and chaos run uses: same layers, no kernel"},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	tcpCopyBytes = 16 << 20
	simCopyBytes = 16 << 20
	// Warm-up sizes: enough for caches, pools, the scheduler's cost model
	// and the kernel's socket buffers to settle.
	warmNullCalls = 2000
	warmCopies    = 2
	warmRequests  = 50
	warmSessions  = 50
	// churnRefreshEvery is how often the churn workload re-probes the pool.
	churnRefreshEvery = 64
)

// --- daemon ------------------------------------------------------------------

// daemon is an in-process rCUDA server on a loopback listener. Its device
// runs on a Sim clock: the server's Go code runs, the modeled PCIe and
// kernel times do not sleep, so wall time is our code's time.
type daemon struct {
	dev *gpu.Device
	srv *rcuda.Server
	ln  net.Listener
	wg  sync.WaitGroup
	tr  *tracer
}

func startDaemon(tr *tracer, opts ...rcuda.ServerOption) (*daemon, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	dev := gpu.New(gpu.Config{Clock: vclock.NewSim()})
	d := &daemon{dev: dev, srv: rcuda.NewServer(dev, opts...), ln: ln, tr: tr}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if tr == nil {
			_ = d.srv.Serve(ln) // returns nil once Close shuts the listener
			return
		}
		// Traced runs own the accept loop so the server's end of every
		// connection can be wrapped.
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				conn := wrapConn(transport.NewTCPConn(c), tr, serverSide)
				_ = d.srv.ServeConn(conn)
				_ = conn.Close()
			}()
		}
	}()
	return d, nil
}

func (d *daemon) addr() string { return d.ln.Addr().String() }

// dial opens a client connection to the daemon.
func (d *daemon) dial() (transport.Conn, error) {
	c, err := transport.DialTCP(d.addr())
	if err != nil {
		return nil, err
	}
	return wrapConn(c, d.tr, clientSide), nil
}

// open dials and runs the session handshake.
func (d *daemon) open(e *env, opts ...rcuda.ClientOption) (*rcuda.Client, transport.Conn, error) {
	conn, err := d.dial()
	if err != nil {
		return nil, nil, err
	}
	cl, err := openClient(e, conn, opts...)
	return cl, conn, err
}

func openClient(e *env, conn transport.Conn, opts ...rcuda.ClientOption) (cl *rcuda.Client, err error) {
	err = e.tr.call(spanOpen, func() error {
		cl, err = rcuda.Open(conn, e.img, opts...)
		return err
	})
	return cl, err
}

// stop shuts the daemon down and checks that nothing leaked on its device.
func (d *daemon) stop() []string {
	var bad []string
	if err := d.srv.Close(); err != nil {
		bad = append(bad, fmt.Sprintf("server close: %v", err))
	}
	_ = d.ln.Close() // already closed by the server in untraced runs
	d.wg.Wait()
	if n := d.dev.MemoryInUse(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d bytes still allocated on the device", n))
	}
	return bad
}

// addSchedCounts adds the scheduler's per-class accounting to c.
func (d *daemon) addSchedCounts(c *counters) {
	for _, u := range d.srv.StatsSnapshot().Classes {
		c[cServed] += int64(u.Served)
		c[cPreempted] += int64(u.Preempted)
	}
}

// clientCounters folds one connection's and (when not nil) its client's
// stats.
func clientCounters(conn transport.Conn, cl *rcuda.Client) counters {
	var c counters
	st := conn.Stats()
	c[cMsgsSent], c[cBytesSent], c[cBytesRecv] = st.MessagesSent, st.BytesSent, st.BytesRecv
	c[cPoolHits], c[cPoolMisses] = st.PoolHits, st.PoolMisses
	if sc, ok := conn.(interface{ bulkFrames() int64 }); ok {
		c[cBulkFrames] = sc.bulkFrames()
	}
	if cl != nil {
		cs := cl.Stats()
		c[cBatchFrames], c[cBatchedOps] = cs.BatchesFlushed, cs.OpsCoalesced
		c[cCacheHits], c[cCacheMisses] = cs.CacheHits, cs.CacheMisses
		c[cRetries], c[cReconnects] = cs.Retries, cs.Reconnects
	}
	return c
}

// clientViolations checks the per-round client invariants.
func clientViolations(cl *rcuda.Client) []string {
	var bad []string
	if s := cl.Stats(); s.Retries != 0 || s.Reconnects != 0 || s.ConnFaults != 0 {
		bad = append(bad, fmt.Sprintf("client saw %d faults, %d retries, %d reconnects on a fault-free path",
			s.ConnFaults, s.Retries, s.Reconnects))
	}
	return bad
}

// --- rtt_small -----------------------------------------------------------------

func setupRTT(e *env) (*round, error) {
	d, err := startDaemon(e.tr)
	if err != nil {
		return nil, err
	}
	cl, conn, err := d.open(e)
	if err != nil {
		return nil, err
	}
	ref, err := newRefRTT()
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmNullCalls; i++ {
		if err := cl.DeviceSynchronize(); err != nil {
			return nil, err
		}
		if _, _, err := ref.op(); err != nil {
			return nil, err
		}
	}
	call := cl.DeviceSynchronize
	return &round{
		work:     func() (laps, bool, error) { return laps{}, false, e.tr.op(call) },
		ref:      ref.op,
		snapshot: func() counters { return clientCounters(conn, cl) },
		close: func() []string {
			ref.close()
			bad := clientViolations(cl)
			if err := cl.Close(); err != nil {
				bad = append(bad, fmt.Sprintf("client close: %v", err))
			}
			return append(bad, d.stop()...)
		},
	}, nil
}

// --- memcpy_bulk / memcpy_chunked ----------------------------------------------

// stamp writes the op counter at every MiB of buf, so each op moves bytes
// no earlier op did and a copy that silently did nothing is caught.
func stamp(buf []byte, ctr uint64) {
	for off := 0; off+8 <= len(buf); off += 1 << 20 {
		binary.LittleEndian.PutUint64(buf[off:], ctr)
	}
}

// copier is the work op shared by the three copy workloads: stamp, timed
// host→device, timed device→host, byte-for-byte check.
type copier struct {
	tr       *tracer
	cl       *rcuda.Client
	src, dst []byte
	ptr      cudart.DevicePtr
	wall     laps
	// simNow reads the pipe's virtual clock; nil on real sockets. sim is
	// the last op's simulated time per direction.
	simNow func() time.Duration
	sim    laps
	body   func() error // c.copyBoth, bound once so an op allocates nothing
}

// hostBuffers are the harness's own host-side buffers, kept across rounds:
// faulting in fresh 16 MiB slices every round (tens of microseconds a page
// in a small VM) would make set-up time a measurement of the kernel's
// page-fault path, not of the repository.
var hostBuffers = map[string][]byte{}

func hostBuffer(name string, n int) []byte {
	if len(hostBuffers[name]) != n {
		hostBuffers[name] = make([]byte, n)
	}
	return hostBuffers[name]
}

// copyCounter numbers every copy op of the process, so no two ops of any
// round move the same bytes.
var copyCounter uint64

func newCopier(e *env, cl *rcuda.Client, n int, simNow func() time.Duration) (*copier, error) {
	c := &copier{tr: e.tr, cl: cl, src: hostBuffer("src", n), dst: hostBuffer("dst", n), simNow: simNow}
	c.body = c.copyBoth
	fillPattern(c.src, e.seed, 0x2a)
	var err error
	c.ptr, err = cl.Malloc(uint32(n))
	return c, err
}

func (c *copier) copyBoth() error {
	var s0, s1 time.Duration
	if c.simNow != nil {
		s0 = c.simNow()
	}
	t0 := time.Now()
	if err := c.cl.MemcpyToDevice(c.ptr, c.src); err != nil {
		return err
	}
	t1 := time.Now()
	if c.simNow != nil {
		s1 = c.simNow()
	}
	if err := c.cl.MemcpyToHost(c.dst, c.ptr); err != nil {
		return err
	}
	c.wall = laps{t1.Sub(t0), time.Since(t1)}
	if c.simNow != nil {
		c.sim = laps{s1 - s0, c.simNow() - s1}
	}
	return nil
}

func (c *copier) op() (laps, bool, error) {
	copyCounter++
	stamp(c.src, copyCounter)
	if err := c.tr.op(c.body); err != nil {
		return laps{}, false, err
	}
	bad := !bytes.Equal(c.src, c.dst) || (c.simNow != nil && !simTimesRepeat(c.sim))
	return c.wall, bad, nil
}

// warm runs the copy and its reference a few times before timing.
func (c *copier) warm(ref opFunc, n int) error {
	for i := 0; i < n; i++ {
		if _, bad, err := c.op(); err != nil || bad {
			return fmt.Errorf("warm-up copy: bad=%v err=%v", bad, err)
		}
		if _, _, err := ref(); err != nil {
			return err
		}
	}
	return nil
}

// close frees the device buffer and finalizes the session.
func (c *copier) close() []string {
	bad := clientViolations(c.cl)
	if err := c.cl.Free(c.ptr); err != nil {
		bad = append(bad, fmt.Sprintf("free: %v", err))
	}
	if err := c.cl.Close(); err != nil {
		bad = append(bad, fmt.Sprintf("client close: %v", err))
	}
	return bad
}

func setupMemcpy(e *env, opts ...rcuda.ClientOption) (*round, error) {
	d, err := startDaemon(e.tr)
	if err != nil {
		return nil, err
	}
	cl, conn, err := d.open(e, opts...)
	if err != nil {
		return nil, err
	}
	cp, err := newCopier(e, cl, tcpCopyBytes, nil)
	if err != nil {
		return nil, err
	}
	ref, err := newRefStream(cp.src, hostBuffer("ref", tcpCopyBytes))
	if err != nil {
		return nil, err
	}
	if err := cp.warm(ref.op, warmCopies); err != nil {
		return nil, err
	}
	return &round{
		work:     cp.op,
		ref:      ref.op,
		snapshot: func() counters { return clientCounters(conn, cl) },
		close: func() []string {
			ref.close()
			return append(cp.close(), d.stop()...)
		},
	}, nil
}

// --- infer_unbatched / infer_batched -------------------------------------------

func setupInfer(e *env, opts ...rcuda.ClientOption) (*round, error) {
	data, err := newInferData(e.seed, e.mod)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(e.tr, rcuda.WithScheduler(sched.WFQ))
	if err != nil {
		return nil, err
	}
	cl, conn, err := d.open(e, opts...)
	if err != nil {
		return nil, err
	}
	sess, err := openInferSession(cl, data.weights)
	if err != nil {
		return nil, err
	}
	ref, err := newRefRTT()
	if err != nil {
		return nil, err
	}
	k := 0
	body := func() error { return sess.request(data.inputs[k]) }
	work := func() (laps, bool, error) {
		k = (k + 1) % inferInputs
		if err := e.tr.op(body); err != nil {
			return laps{}, false, err
		}
		return laps{}, !bytes.Equal(sess.out, data.want[k]), nil
	}
	for i := 0; i < warmRequests; i++ {
		if _, bad, err := work(); err != nil || bad {
			return nil, fmt.Errorf("warm-up request: bad=%v err=%v", bad, err)
		}
	}
	for i := 0; i < warmNullCalls; i++ {
		if _, _, err := ref.op(); err != nil {
			return nil, err
		}
	}
	return &round{
		work: work,
		ref:  ref.op,
		snapshot: func() counters {
			c := clientCounters(conn, cl)
			d.addSchedCounts(&c)
			return c
		},
		close: func() []string {
			ref.close()
			bad := clientViolations(cl)
			if err := sess.close(); err != nil {
				bad = append(bad, fmt.Sprintf("session teardown: %v", err))
			}
			if err := cl.Close(); err != nil {
				bad = append(bad, fmt.Sprintf("client close: %v", err))
			}
			return append(bad, d.stop()...)
		},
	}, nil
}

// --- session_churn -------------------------------------------------------------

func setupChurn(e *env) (*round, error) {
	var daemons [2]*daemon
	var eps []broker.Endpoint
	// Connection counters survive their connection: each dial folds the
	// previous connection's totals into acc.
	var acc counters
	var last transport.Conn
	for i := range daemons {
		d, err := startDaemon(e.tr, rcuda.WithScheduler(sched.WFQ))
		if err != nil {
			return nil, err
		}
		daemons[i] = d
		var conn transport.Conn
		dialBody := func() (err error) {
			conn, err = d.dial()
			return err
		}
		eps = append(eps, broker.Endpoint{
			Name: fmt.Sprintf("daemon-%d", i),
			Dial: func() (transport.Conn, error) {
				if err := e.tr.call(spanDial, dialBody); err != nil {
					return nil, err
				}
				if last != nil {
					acc = acc.add(clientCounters(last, nil))
				}
				last = conn
				return conn, nil
			},
		})
	}
	pool, err := broker.New(eps)
	if err != nil {
		return nil, err
	}
	ref, err := newRefConn()
	if err != nil {
		return nil, err
	}
	var sess *broker.Session
	var ptr cudart.DevicePtr
	open := func() (err error) {
		sess, err = pool.Open(e.img, broker.JobSpec{})
		return err
	}
	traffic := func() (err error) {
		if ptr, err = sess.Malloc(4096); err != nil {
			return err
		}
		return sess.Free(ptr)
	}
	closeSess := func() error { return sess.Close() }
	refresh := func() error { pool.Refresh(); return nil }
	n := 0
	body := func() error {
		if err := e.tr.call(spanPoolOp, open); err != nil {
			return err
		}
		if err := e.tr.call(spanTraffic, traffic); err != nil {
			return err
		}
		if err := e.tr.call(spanClose, closeSess); err != nil {
			return err
		}
		if n++; n%churnRefreshEvery == 0 {
			return e.tr.call(spanRefresh, refresh)
		}
		return nil
	}
	work := func() (laps, bool, error) {
		if err := e.tr.op(body); err != nil {
			return laps{}, false, err
		}
		s := sess.Stats()
		return laps{}, ptr == 0 || s.Retries != 0 || s.Reconnects != 0, nil
	}
	for i := 0; i < warmSessions; i++ {
		if _, bad, err := work(); err != nil || bad {
			return nil, fmt.Errorf("warm-up session: bad=%v err=%v", bad, err)
		}
		if _, _, err := ref.op(); err != nil {
			return nil, err
		}
	}
	return &round{
		work: work,
		ref:  ref.op,
		snapshot: func() counters {
			c := acc
			if last != nil {
				c = c.add(clientCounters(last, nil))
			}
			for _, d := range daemons {
				d.addSchedCounts(&c)
			}
			ps := pool.Stats()
			c[cPlacements], c[cSpills] = ps.Placements, ps.Spills
			c[cFailovers], c[cMigrations] = ps.Failovers, ps.Migrations
			return c
		},
		close: func() []string {
			ref.close()
			var bad []string
			if ps := pool.Stats(); ps.Failovers != 0 || ps.ProbeFailures != 0 || ps.Markdowns != 0 {
				bad = append(bad, fmt.Sprintf("pool saw %d failovers, %d failed probes, %d markdowns",
					ps.Failovers, ps.ProbeFailures, ps.Markdowns))
			}
			_ = pool.Close()
			for _, d := range daemons {
				bad = append(bad, d.stop()...)
			}
			return bad
		},
	}, nil
}

// --- fleet_place ---------------------------------------------------------------

// The two fleet shapes are copies of cmd/rcuda-loadgen's scale-down-migrate
// and scale-100k-classes scenarios, with the seed taken from -seed.

func fleetScaleDown(seed int64) loadgen.Config {
	return loadgen.Config{
		Seed: seed, Sessions: 10_000, Arrival: loadgen.BurstyOnOff, Rate: 6_000,
		BurstOnMean: 400 * time.Millisecond, BurstOffMean: 400 * time.Millisecond,
		BurstFactor:    6,
		Classes:        []loadgen.Class{{Name: "train", Weight: 1, HoldMean: 120 * time.Millisecond, Durable: true}},
		InitialDaemons: 2, DaemonCapacity: 32,
		Autoscale: &broker.AutoscalerConfig{
			Min: 2, Max: 48, DaemonCapacity: 32, Cooldown: 100 * time.Millisecond,
			DownThreshold: 0.6,
		},
	}
}

func fleetClasses(seed int64, sessions int) loadgen.Config {
	return loadgen.Config{
		Seed: seed, Sessions: sessions, Arrival: loadgen.Poisson, Rate: 40_000,
		Classes: []loadgen.Class{
			{Name: "rt", Weight: 1, HoldMean: 5 * time.Millisecond, Durable: true, SchedClass: protocol.SchedClassRealtime},
			{Name: "batch", Weight: 2, HoldMean: 40 * time.Millisecond, Durable: true, SchedClass: protocol.SchedClassBatch},
			{Name: "scavenge", Weight: 1, HoldMean: 20 * time.Millisecond, Durable: false, SchedClass: protocol.SchedClassBestEffort},
		},
		Policy:         broker.ClassAware,
		InitialDaemons: 4, DaemonCapacity: 64,
		Autoscale: &broker.AutoscalerConfig{
			Min: 4, Max: 64, DaemonCapacity: 64, Cooldown: 250 * time.Millisecond,
		},
	}
}

// fleetSessions is the number of simulated sessions one fleet_place op
// places.
const fleetSessions = 10_000 + 100_000

// fleetFirst holds the first op's results; every later op of the process
// runs the same seeds and must reproduce them exactly.
var fleetFirst [2]*loadgen.Result

// fleetCounters accumulates the loadgen runs' host time and placer
// counters; spills and placements are the scale-down shape's, whose
// spills per session is the wasted-work ratio.
var fleetCounters counters

func runFleet(e *env, which int, cfg loadgen.Config) (bad bool, err error) {
	var res *loadgen.Result
	t0 := time.Now()
	err = e.tr.call(spanLoadgen, func() (err error) {
		res, err = loadgen.Run(cfg)
		return err
	})
	if err != nil {
		return false, err
	}
	c := &fleetCounters
	if which == 0 {
		c[cScaleDownNS] += time.Since(t0).Nanoseconds()
		c[cSpills] += res.Pool.Spills
		c[cPlacements] += int64(cfg.Sessions)
	} else {
		c[cClassesNS] += time.Since(t0).Nanoseconds()
	}
	c[cFailovers] += res.Pool.Failovers
	c[cMigrations] += res.Pool.Migrations
	if res.Completed != int64(cfg.Sessions) || res.LostDurable != 0 || res.Unplaced != 0 {
		bad = true
	}
	if fleetFirst[which] == nil {
		fleetFirst[which] = res
	} else if !reflect.DeepEqual(res, fleetFirst[which]) {
		bad = true
	}
	return bad, nil
}

func setupFleet(e *env) (*round, error) {
	seedA, seedB := deriveSeed(e.seed, 1), deriveSeed(e.seed, 2)
	ref := &refCPU{seed: deriveSeed(e.seed, 3)}
	// Warm-up: a 2 000-session run of the larger shape and one reference
	// pass, so heap growth and page faults happen before the first op.
	if _, err := loadgen.Run(fleetClasses(seedB, 2_000)); err != nil {
		return nil, err
	}
	if _, _, err := ref.op(); err != nil {
		return nil, err
	}
	var badA, badB bool
	body := func() (err error) {
		if badA, err = runFleet(e, 0, fleetScaleDown(seedA)); err != nil {
			return err
		}
		badB, err = runFleet(e, 1, fleetClasses(seedB, 100_000))
		return err
	}
	return &round{
		work: func() (laps, bool, error) {
			err := e.tr.op(body)
			fleetCounters[cFleetRuns]++
			return laps{}, badA || badB, err
		},
		ref:      ref.op,
		snapshot: func() counters { return fleetCounters },
		close:    func() []string { return nil },
	}, nil
}

// --- sim_memcpy ----------------------------------------------------------------

// simFirst holds the first op's simulated copy times; a simulator speed-up
// must leave simulated statistics untouched, so every op of every round
// must reproduce them.
var simFirst struct {
	set bool
	sim laps
}

func simTimesRepeat(sim laps) bool {
	if !simFirst.set {
		simFirst.set, simFirst.sim = true, sim
	}
	return sim == simFirst.sim && sim[0] > 0 && sim[1] > 0
}

func setupSimMemcpy(e *env) (*round, error) {
	clk := vclock.NewSim()
	dev := gpu.New(gpu.Config{Clock: clk})
	srv := rcuda.NewServer(dev)
	cliEnd, srvEnd := transport.Pipe(netsim.IB40G(), clk, nil)
	conn := wrapConn(cliEnd, e.tr, clientSide)
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(wrapConn(srvEnd, e.tr, serverSide)) }()
	cl, err := openClient(e, conn)
	if err != nil {
		return nil, err
	}
	cp, err := newCopier(e, cl, simCopyBytes, clk.Now)
	if err != nil {
		return nil, err
	}
	ref := newRefMemmove(cp.src)
	if err := cp.warm(ref.op, 1); err != nil {
		return nil, err
	}
	return &round{
		work:     cp.op,
		ref:      ref.op,
		snapshot: func() counters { return clientCounters(conn, cl) },
		close: func() []string {
			bad := cp.close()
			if err := <-served; err != nil {
				bad = append(bad, fmt.Sprintf("serve: %v", err))
			}
			if err := srv.Close(); err != nil {
				bad = append(bad, fmt.Sprintf("server close: %v", err))
			}
			if n := dev.MemoryInUse(); n != 0 {
				bad = append(bad, fmt.Sprintf("%d bytes still allocated on the device", n))
			}
			return bad
		},
	}, nil
}
