package rcuda

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/sched"
)

// residentModel is the 24-layer model of runInferenceRequests left resident
// on a runtime, with everything a request needs allocated up front — the
// benchmark's call sequence (bench/inputs.go), so that what request
// allocates is what the middleware allocates.
type residentModel struct {
	rt     inferenceRuntime
	act    [2]cudart.DevicePtr
	stream cudart.Stream
	event  cudart.Event
	params [aliasLayers][]byte
	input  []byte
	out    []byte
}

func newResidentModel(t *testing.T, rt inferenceRuntime) *residentModel {
	t.Helper()
	// Identity layers over small integers: 24 chained products return the
	// input exactly.
	in, id := make([]float32, aliasDim*aliasDim), make([]float32, aliasDim*aliasDim)
	for i := range in {
		in[i] = float32(i%7 - 3)
	}
	for i := 0; i < aliasDim; i++ {
		id[i*aliasDim+i] = 1
	}
	m := &residentModel{rt: rt, input: cudart.Float32Bytes(in), out: make([]byte, aliasBytes)}
	weights := cudart.Float32Bytes(id)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var ptrs [aliasLayers + 2]cudart.DevicePtr
	for i := range ptrs {
		p, err := rt.Malloc(aliasBytes)
		must(err)
		ptrs[i] = p
		if i < aliasLayers {
			must(rt.MemcpyToDevice(p, weights))
		}
	}
	m.act = [2]cudart.DevicePtr{ptrs[aliasLayers], ptrs[aliasLayers+1]}
	var err error
	m.stream, err = rt.StreamCreate()
	must(err)
	m.event, err = rt.EventCreate()
	must(err)
	cur, nxt := m.act[0], m.act[1]
	for l := range m.params {
		m.params[l] = gpu.PackParams(uint32(ptrs[l]), uint32(cur), uint32(nxt), aliasDim)
		cur, nxt = nxt, cur
	}
	return m
}

// request issues one inference request and leaves the output in m.out.
func (m *residentModel) request() error {
	if _, err := m.rt.DeviceProperties(); err != nil {
		return err
	}
	if err := m.rt.MemcpyToDeviceAsync(m.act[0], m.input, m.stream); err != nil {
		return err
	}
	for l := range m.params {
		if err := m.rt.LaunchAsync(kernels.SgemmKernel, cudart.Dim3{X: 1, Y: 1},
			cudart.Dim3{X: aliasDim, Y: aliasDim}, 0, m.params[l], m.stream); err != nil {
			return err
		}
	}
	if err := m.rt.EventRecord(m.event, m.stream); err != nil {
		return err
	}
	if err := m.rt.EventSynchronize(m.event); err != nil {
		return err
	}
	if err := m.rt.EventQuery(m.event); err != nil {
		return err
	}
	return m.rt.MemcpyToHost(m.out, m.act[aliasLayers%2])
}

// TestInferenceRequestAllocationGate: one 24-layer inference request — the
// benchmark's infer_* call sequence — over an in-process pipe to a WFQ
// server, both ends counted. Decoded requests, replies and the scheduler op
// live in per-connection storage (DESIGN.md §3), so what is left is the
// simulated pipe's own per-message bookkeeping.
func TestInferenceRequestAllocationGate(t *testing.T) {
	skipUnderRace(t)
	for _, tc := range []struct {
		name string
		opts []ClientOption
		max  float64
	}{
		{name: "batched", opts: []ClientOption{WithBatching(0, 0)}, max: 8},
		{name: "unbatched", max: 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, srv, _, cleanup := startBatchSession(t, netsim.IB40G(),
				[]ServerOption{WithScheduler(sched.WFQ)}, tc.opts...)
			defer cleanup()
			m := newResidentModel(t, client)
			var rerr error
			request := func() {
				if err := m.request(); err != nil {
					rerr = err
				}
			}
			for i := 0; i < 4; i++ {
				request() // warm-up: slabs, slots and pooled buffers reach their size
			}
			got := testing.AllocsPerRun(100, request)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(m.out, m.input) {
				t.Fatal("24 identity layers did not return the input")
			}
			t.Logf("%s inference request: %v allocations on both ends", tc.name, got)
			if got > tc.max {
				t.Errorf("%s inference request allocates %v times, want at most %v", tc.name, got, tc.max)
			}
			if tc.opts != nil && srv.Stats().BatchFrames == 0 {
				t.Error("no batch frame reached the server; the gate measured the wrong path")
			}
		})
	}
}

// TestBatchedInferenceAllocatesNothingAfterGC: 100 batched inference
// requests over a loopback socket to a WFQ server, started right after two
// GC cycles have emptied every sync.Pool, allocate nothing on either end.
// Each connection receives into the small buffer it kept from its previous
// frame and a launch builds no frame (DESIGN.md §4, §7), so a GC triggered
// by unrelated garbage no longer sends the next call to an empty pool. Two
// one-off allocations are kept out of the count: the runtime builds each
// type assertion's call-site cache once per process, at a random one of its
// calls (the long warm-up, and the best of three rounds), and runs its own
// cleanups right after a GC (the pause). A pool emptied by GC strays in
// every round.
func TestBatchedInferenceAllocatesNothingAfterGC(t *testing.T) {
	skipUnderRace(t)
	lb := startLoopback(t, nil, WithScheduler(sched.WFQ))
	defer lb.stop()
	conn, err := lb.dial(nil)()
	if err != nil {
		t.Fatal(err)
	}
	client, err := Open(conn, moduleImage(t, calib.MM), WithBatching(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	m := newResidentModel(t, client)
	requests := func(n int) {
		for i := 0; i < n; i++ {
			if err := m.request(); err != nil {
				t.Fatal(err)
			}
		}
	}
	requests(5000)
	best := uint64(math.MaxUint64)
	for round := 0; round < 3 && best > 0; round++ {
		runtime.GC()
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		requests(100)
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	if !bytes.Equal(m.out, m.input) {
		t.Fatal("24 identity layers did not return the input")
	}
	if best != 0 {
		t.Errorf("100 batched requests after a GC allocate %d times on both ends (best of 3 rounds), want 0", best)
	}
}
