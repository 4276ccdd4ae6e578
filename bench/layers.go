package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"rcuda/internal/broker"
	"rcuda/internal/cudart"
	"rcuda/internal/des"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/protocol"
	"rcuda/internal/sched"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
)

// Layer loops: each times calls into one layer's public API from outside,
// so a change to that layer has a number of its own to move. They run only
// in -trace runs, after the workload, and are the same in every workload's
// traced run. README.md says which end-to-end metric on which workload each
// one is expected to move.

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int

// timeLoop returns the median, over batches, of f's mean time per call in
// nanoseconds.
func timeLoop(batches, perBatch int, f func()) float64 {
	f() // warm
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			f()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(perBatch)
	}
	return median(per)
}

// allocLoop returns f's allocations and allocated bytes per call.
func allocLoop(n int, f func()) (allocs, bytes float64) {
	f() // warm: pools filled, lazy state built
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// layerLoops runs every loop and returns the metrics by name.
func layerLoops(e *env) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, f := range []func(*env, map[string]float64) error{
		protocolLoops, transportLoops, schedLoops, gpuLoops, brokerLoops, desLoops, referenceLoops,
	} {
		if err := f(e, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- protocol ----------------------------------------------------------------

func inferLaunch() *protocol.LaunchRequest {
	return &protocol.LaunchRequest{
		BlockDim: [3]uint32{inferDim, inferDim, 0}, GridDim: [2]uint32{1, 1},
		Stream: 1, Name: kernels.SgemmKernel,
		Params: gpu.PackParams(0x1000, 0x2000, 0x3000, inferDim),
	}
}

func protocolLoops(e *env, out map[string]float64) error {
	buf := make([]byte, 0, 4096)
	small := &protocol.MallocRequest{Size: 4096}
	smallWire := small.Encode(nil)
	launch := inferLaunch()
	launchWire := launch.Encode(nil)
	var derr error
	decode := func(wire []byte) func() {
		return func() {
			r, err := protocol.DecodeRequest(wire)
			if err != nil {
				derr = err
				return
			}
			sink += r.WireSize()
		}
	}
	out["protocol.encode_small_ns"] = timeLoop(9, 20000, func() { sink += len(small.Encode(buf[:0])) })
	out["protocol.decode_small_ns"] = timeLoop(9, 20000, decode(smallWire))
	out["protocol.encode_launch_ns"] = timeLoop(9, 20000, func() { sink += len(launch.Encode(buf[:0])) })
	out["protocol.decode_launch_ns"] = timeLoop(9, 20000, decode(launchWire))
	out["protocol.allocs_per_small_codec"], _ = allocLoop(20000, func() {
		sink += len(small.Encode(buf[:0]))
		decode(smallWire)()
	})

	// The OpBatch frame of one batched inference request: 1 async H2D, 24
	// launches, 1 event record.
	batch := &protocol.BatchRequest{Seq: 1}
	batch.Subs = append(batch.Subs, (&protocol.MemcpyToDeviceAsyncRequest{
		Dst: 0x2000, Stream: 1, Data: make([]byte, inferBytes)}).Encode(nil))
	for l := 0; l < inferLayers; l++ {
		batch.Subs = append(batch.Subs, launchWire)
	}
	batch.Subs = append(batch.Subs, (&protocol.EventRecordRequest{Event: 1, Stream: 1}).Encode(nil))
	batchBuf := make([]byte, 0, batch.WireSize())
	batchWire := batch.Encode(nil)
	out["protocol.batch_encode_ns"] = timeLoop(9, 5000, func() { sink += len(batch.Encode(batchBuf[:0])) })
	out["protocol.batch_decode_ns"] = timeLoop(9, 5000, decode(batchWire))

	var fw protocol.FrameWriter
	null := &protocol.SyncRequest{}
	var werr error
	out["protocol.frame_write_small_ns"] = timeLoop(9, 20000, func() {
		if err := fw.WriteFrame(io.Discard, null); err != nil {
			werr = err
		}
	})

	bulk := (&protocol.MemcpyToDeviceRequest{Dst: 0x1000, Data: make([]byte, tcpCopyBytes)}).Encode(nil)
	out["protocol.decode_h2d_16m_ns"] = timeLoop(5, 20, decode(bulk))
	_, out["protocol.decode_h2d_16m_alloc_bytes"] = allocLoop(20, decode(bulk))
	if derr != nil {
		return fmt.Errorf("protocol loops: decode: %w", derr)
	}
	if werr != nil {
		return fmt.Errorf("protocol loops: frame write: %w", werr)
	}
	return nil
}

// --- transport ---------------------------------------------------------------

// interleave alternates short slices of a reference loop and a work loop
// and returns the median work/reference ratio plus the reference's median
// time per op in nanoseconds.
func interleave(pairs int, d time.Duration, ref, work opFunc, lap int) (ratio, refNS float64, err error) {
	var rl, wl sampleLog
	var ratios, refs []float64
	for p := 0; p < pairs; p++ {
		rl.reserve()
		wl.reserve()
		rs, err := runSlice(d, ref, &rl)
		if err != nil {
			return 0, 0, err
		}
		ws, err := runSlice(d, work, &wl)
		if err != nil {
			return 0, 0, err
		}
		r, w := rs.perOp(&rl), ws.perOp(&wl)
		if lap >= 0 {
			r = float64(rs.lap[lap]) / float64(rs.ops)
		}
		ratios = append(ratios, w/r)
		refs = append(refs, r)
	}
	return median(ratios), median(refs), nil
}

// bulkPeer is the harness end of the TCPConn bulk loop: it reads one
// length-prefixed frame into its own buffer and answers with a 4-byte
// payload frame, the shape of a MemcpyToDevice exchange.
func bulkPeer(c io.ReadWriter, n int) error {
	mem := make([]byte, n+64)
	var hdr [4]byte
	reply := [8]byte{4}
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return nil // peer closed
		}
		size := int(binary.LittleEndian.Uint32(hdr[:]))
		if size > len(mem) {
			return fmt.Errorf("bulk peer: frame of %d bytes", size)
		}
		if _, err := io.ReadFull(c, mem[:size]); err != nil {
			return err
		}
		if _, err := c.Write(reply[:]); err != nil {
			return err
		}
	}
}

func transportLoops(e *env, out map[string]float64) error {
	// Small messages: TCPConn.Send/Recv of a null call against the same
	// echo peer the bare reference uses.
	ref, err := newRefRTT()
	if err != nil {
		return err
	}
	raw, err := dialRaw(ref.srv.addr())
	if err != nil {
		return err
	}
	tc := transport.NewTCPConn(raw)
	null := &protocol.SyncRequest{}
	small := func() (laps, bool, error) {
		if err := tc.Send(null); err != nil {
			return laps{}, false, err
		}
		p, err := tc.Recv()
		return laps{}, len(p) != 4, err
	}
	ratio, refNS, err := interleave(3, 100*time.Millisecond, ref.op, small, -1)
	_ = tc.Close()
	ref.close()
	if err != nil {
		return err
	}
	out["transport.tcp_small_rtt_over_ref"] = ratio
	out["harness.ref_rtt_p50_us"] = refNS / 1e3

	// Bulk: one 16 MiB MemcpyToDevice frame and its 4-byte reply against a
	// peer that only reads and acks, vs ref.stream's host→device half.
	src := make([]byte, tcpCopyBytes)
	fillPattern(src, e.seed, 0x2a)
	stream, err := newRefStream(src, make([]byte, tcpCopyBytes))
	if err != nil {
		return err
	}
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	peerDone := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			peerDone <- err
			return
		}
		defer c.Close()
		peerDone <- bulkPeer(c, tcpCopyBytes)
	}()
	raw, err = dialRaw(ln.Addr().String())
	if err != nil {
		return err
	}
	tc = transport.NewTCPConn(raw)
	req := &protocol.MemcpyToDeviceRequest{Dst: 0x1000, Data: src}
	bulk := func() (laps, bool, error) {
		if err := tc.Send(req); err != nil {
			return laps{}, false, err
		}
		p, err := tc.Recv()
		return laps{}, len(p) != 4, err
	}
	ratio, refNS, err = interleave(3, 100*time.Millisecond, stream.op, bulk, 0)
	_ = tc.Close()
	perr := <-peerDone
	_ = ln.Close()
	stream.close()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	out["transport.tcp_bulk_over_ref"] = ratio
	out["harness.ref_stream_gbps"] = float64(tcpCopyBytes) * 8 / refNS

	// The simulated pipe: a null-call ping-pong between two goroutines, and
	// the bytes one 64 MiB frame (an MM 4096 matrix, larger than the buffer
	// pool's largest class) allocates on its way through.
	clk := vclock.NewSim()
	a, b := transport.Pipe(netsim.IB40G(), clk, nil)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
			if err := b.Send(null); err != nil {
				return
			}
		}
	}()
	var perr2 error
	pingPipe := func(m protocol.Message) func() {
		return func() {
			if err := a.Send(m); err != nil {
				perr2 = err
				return
			}
			p, err := a.Recv()
			if err != nil {
				perr2 = err
			}
			sink += len(p)
		}
	}
	out["transport.pipe_small_rtt_ns"] = timeLoop(9, 5000, pingPipe(null))
	big := &protocol.MemcpyToDeviceRequest{Dst: 0x1000, Data: make([]byte, 64<<20)}
	_, out["transport.pipe_bulk_alloc_bytes"] = allocLoop(2, pingPipe(big))
	_ = a.Close()
	wg.Wait()
	if perr2 != nil {
		return fmt.Errorf("pipe loops: %w", perr2)
	}
	return nil
}

// --- sched -------------------------------------------------------------------

func schedLoops(_ *env, out map[string]float64) error {
	cfg := sched.Config{Policy: sched.WFQ}
	q := sched.NewQueue(cfg, vclock.NewSim())
	s := q.Register(sched.Batch, 1)
	var aerr error
	out["sched.gate_uncontended_ns"] = timeLoop(9, 20000, func() {
		if err := q.Acquire(s, time.Microsecond, nil); err != nil {
			aerr = err
			return
		}
		q.Release(s, time.Microsecond)
	})
	if aerr != nil {
		return fmt.Errorf("sched loops: %w", aerr)
	}

	// Contended: a realtime and a batch session each hold the device for
	// about 2 µs per op, back to back, on a wall-clock queue; the reported
	// wait is the realtime class's.
	cq := sched.NewQueue(cfg, nil)
	var wg sync.WaitGroup
	stop := time.Now().Add(150 * time.Millisecond)
	for _, class := range []sched.Class{sched.Realtime, sched.Batch} {
		fl := cq.Register(class, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if err := cq.Acquire(fl, 2*time.Microsecond, nil); err != nil {
					return
				}
				for t0 := time.Now(); time.Since(t0) < 2*time.Microsecond; {
				}
				cq.Release(fl, 2*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	waits := cq.Snapshot()[sched.Realtime].Waits
	out["sched.gate_contended_wait_p50_us"] = float64(waits.Percentile(50)) / 1e3
	out["sched.gate_contended_wait_p99_us"] = float64(waits.Percentile(99)) / 1e3
	return nil
}

// --- gpu (device service: cudart.Local → gpu → kernels → blas) -----------------

func gpuLoops(e *env, out map[string]float64) error {
	data, err := newInferData(e.seed, e.mod)
	if err != nil {
		return err
	}
	local, err := openLocal(e.mod)
	if err != nil {
		return err
	}
	sess, err := openInferSession(local, data.weights)
	if err != nil {
		return err
	}
	var lerr error
	k := 0
	request := func() {
		k = (k + 1) % inferInputs
		if err := sess.request(data.inputs[k]); err != nil {
			lerr = err
		}
	}
	out["gpu.local_req_ns"] = timeLoop(9, 200, request)
	out["gpu.local_req_allocs"], out["gpu.local_req_alloc_bytes"] = allocLoop(200, request)

	launch := func() {
		if err := local.Launch(kernels.SgemmKernel, cudart.Dim3{X: 1, Y: 1},
			cudart.Dim3{X: inferDim, Y: inferDim}, 0, sess.params[0]); err != nil {
			lerr = err
		}
	}
	out["gpu.launch_sgemm16_ns"] = timeLoop(9, 2000, launch)
	out["gpu.allocs_per_launch"], _ = allocLoop(2000, launch)
	out["gpu.malloc_free_ns"] = timeLoop(9, 5000, func() {
		p, err := local.Malloc(4096)
		if err != nil {
			lerr = err
			return
		}
		if err := local.Free(p); err != nil {
			lerr = err
		}
	})
	ptr, err := local.Malloc(tcpCopyBytes)
	if err != nil {
		return err
	}
	src := make([]byte, tcpCopyBytes)
	out["gpu.memcpy_16m_ns"] = timeLoop(5, 10, func() {
		if err := local.MemcpyToDevice(ptr, src); err != nil {
			lerr = err
		}
	})
	if lerr != nil {
		return fmt.Errorf("gpu loops: %w", lerr)
	}
	if err := local.Free(ptr); err != nil {
		return err
	}
	if err := sess.close(); err != nil {
		return err
	}
	return local.Close()
}

// --- broker ------------------------------------------------------------------

func brokerLoops(_ *env, out map[string]float64) error {
	noDial := func() (transport.Conn, error) { return nil, fmt.Errorf("pick loop never dials") }
	for _, n := range []int{4, 64} {
		pl := broker.NewPlacer(broker.LeastLoaded)
		for i := 0; i < n; i++ {
			idx := pl.Add(broker.Endpoint{Name: fmt.Sprintf("ep-%d", i), Dial: noDial})
			pl.NoteProbe(idx, &protocol.StatsReply{SessionsLive: uint32(i % 7)}, nil)
		}
		ok := true
		out[fmt.Sprintf("broker.pick_%d_ns", n)] = timeLoop(9, 5000, func() {
			idx, found := pl.Pick(broker.JobSpec{}, nil)
			ok = ok && found
			sink += idx
		})
		if !ok {
			return fmt.Errorf("broker loops: Pick found no endpoint among %d", n)
		}
	}
	return nil
}

// --- des ---------------------------------------------------------------------

const desTimers = 1_000_000

func desLoops(e *env, out map[string]float64) error {
	g := newRNG(e.seed, 0xde5)
	loop := des.NewEventLoop()
	fired := 0
	fn := func() { fired++ }
	t0 := time.Now()
	for i := 0; i < desTimers; i++ {
		loop.At(time.Duration(g.next()%uint64(time.Second)), fn)
	}
	loop.Run()
	out["des.eventloop_ns_per_event"] = float64(time.Since(t0).Nanoseconds()) / desTimers
	if fired != desTimers {
		return fmt.Errorf("des loop fired %d of %d timers", fired, desTimers)
	}
	return nil
}

// --- the references on their own ------------------------------------------------

func referenceLoops(e *env, out map[string]float64) error {
	mm := newRefMemmove(hostBuffer("src", simCopyBytes))
	var lapNS []float64
	for i := 0; i < 5; i++ {
		l, _, _ := mm.op()
		lapNS = append(lapNS, float64(l[0].Nanoseconds()))
	}
	out["harness.ref_memmove_gbps"] = float64(simCopyBytes) * 8 / median(lapNS)

	rc, err := newRefConn()
	if err != nil {
		return err
	}
	var log sampleLog
	log.reserve()
	st, err := runSlice(50*time.Millisecond, rc.op, &log)
	rc.close()
	if err != nil {
		return err
	}
	out["harness.ref_conn_us"] = st.perOp(&log) / 1e3

	cpu := &refCPU{seed: deriveSeed(e.seed, 3)}
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, _, err := cpu.op(); err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	out["harness.ref_cpu_ms"] = median(ms)
	return nil
}
