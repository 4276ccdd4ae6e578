package workload

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"rcuda/internal/blas"
	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/rcuda"
	"rcuda/internal/vclock"
)

// This file adds the third case study: a DNN inference loop, the AI-style
// workload the paper's one-round-trip-per-call protocol handles worst. Each
// request pushes a 16×16 activation matrix through a stack of dense layers
// — one tiny sgemm launch per layer — then records an event, synchronizes,
// polls completion, and reads the output back. Per call the device does
// nanoseconds of work and the wire charges a full round trip, so remote
// time is nearly pure network latency: exactly the traffic
// rcuda.WithBatching coalesces and its query cache absorbs.

// Default inference-loop shape: deep enough that launches dominate the
// session, enough requests to amortize the (unbatched-cost) setup.
const (
	DefaultInferenceLayers   = 24
	DefaultInferenceRequests = 32
	DefaultInferencePolls    = 1
)

// InferenceRuntime is the runtime surface the inference loop needs:
// streams, events, and async copies for the hot path, plus the device
// queries a serving loop polls.
type InferenceRuntime interface {
	cudart.AsyncRuntime
	cudart.DeviceRuntime
}

// InferenceOptions configures one inference session.
type InferenceOptions struct {
	// Link is the interconnect between application and GPU.
	Link *netsim.Link
	// Clock overrides the time source; a fresh virtual clock by default.
	Clock vclock.Clock
	// Batched opens the session with rcuda.WithBatching (which also
	// enables the device-query cache).
	Batched bool
	// Layers, Requests, Polls override the default loop shape when
	// positive.
	Layers, Requests, Polls int
	// Seed drives weight and input generation; equal seeds produce
	// bit-identical sessions, so digests are comparable across runs.
	Seed int64
}

// InferenceReport is the outcome of one inference session.
type InferenceReport struct {
	Spec     perfmodel.InferenceSpec
	Network  string
	Elapsed  time.Duration
	Digest   uint64 // FNV-64a over every request's output bytes, in order
	Verified bool   // every output bit-exact against the CPU oracle
	Messages int64  // client-to-server wire messages
	// BytesSent/BytesRecv are the client connection's byte totals, for
	// cross-checking perfmodel's schedule against the real wire.
	BytesSent, BytesRecv int64
	Client               rcuda.ClientStats
	Server               rcuda.ServerStats
}

// ExecuteInference runs the inference loop against any runtime with real
// data: uploads the weight stack, then for each request streams the input
// in, launches every layer, synchronizes through an event, polls it, reads
// the output back, and verifies it bit-exactly against a CPU oracle (the
// simulated kernel and the oracle share the same sgemm routine, so equal
// inputs produce identical bits). It returns an order-sensitive FNV-64a
// digest of all outputs, the cross-run comparison handle.
func ExecuteInference(rt InferenceRuntime, layers, requests, polls int, seed int64) (uint64, bool, error) {
	const dim = perfmodel.InferenceDim
	nbytes := uint32(4 * dim * dim)
	rng := rand.New(rand.NewSource(seed))
	randMatrix := func() []float32 {
		m := make([]float32, dim*dim)
		for i := range m {
			m[i] = rng.Float32()*2 - 1
		}
		return m
	}

	// Weight stack: one device buffer per layer, uploaded synchronously
	// once — the model is resident across requests, as in a serving loop.
	// (Deliberately not async+batched: coalescing the whole stack would
	// build a frame large enough to leave GigaE's small-message regime and
	// pay its TCP-window excess, slower than the separate sends.)
	weights := make([][]float32, layers)
	ptrs := make([]cudart.DevicePtr, 0, layers+2)
	for l := range weights {
		weights[l] = randMatrix()
		p, err := rt.Malloc(nbytes)
		if err != nil {
			return 0, false, err
		}
		ptrs = append(ptrs, p)
		if err := rt.MemcpyToDevice(p, cudart.Float32Bytes(weights[l])); err != nil {
			return 0, false, err
		}
	}
	// Two activation buffers, ping-ponged between layers.
	var act [2]cudart.DevicePtr
	for i := range act {
		p, err := rt.Malloc(nbytes)
		if err != nil {
			return 0, false, err
		}
		act[i] = p
		ptrs = append(ptrs, p)
	}
	stream, err := rt.StreamCreate()
	if err != nil {
		return 0, false, err
	}
	event, err := rt.EventCreate()
	if err != nil {
		return 0, false, err
	}

	digest := fnv.New64a()
	verified := true
	for r := 0; r < requests; r++ {
		// The poll a serving loop makes before sizing its launches; the
		// batched client's cache answers it locally after the first.
		props, err := rt.DeviceProperties()
		if err != nil {
			return 0, false, err
		}
		if props.Name == "" {
			return 0, false, fmt.Errorf("workload: device reported no name")
		}
		input := randMatrix()
		if err := rt.MemcpyToDeviceAsync(act[0], cudart.Float32Bytes(input), stream); err != nil {
			return 0, false, err
		}
		cur, nxt := act[0], act[1]
		for l := 0; l < layers; l++ {
			if err := rt.LaunchAsync(kernels.SgemmKernel,
				cudart.Dim3{X: 1, Y: 1}, cudart.Dim3{X: dim, Y: dim}, 0,
				gpu.PackParams(uint32(ptrs[l]), uint32(cur), uint32(nxt), dim), stream); err != nil {
				return 0, false, err
			}
			cur, nxt = nxt, cur
		}
		if err := rt.EventRecord(event, stream); err != nil {
			return 0, false, err
		}
		if err := rt.EventSynchronize(event); err != nil {
			return 0, false, err
		}
		for p := 0; p < polls; p++ {
			if err := rt.EventQuery(event); err != nil {
				return 0, false, fmt.Errorf("workload: event poll after synchronize: %w", err)
			}
		}
		out := make([]byte, nbytes)
		if err := rt.MemcpyToHost(out, cur); err != nil {
			return 0, false, err
		}
		// CPU oracle: the same layer stack applied with the same sgemm
		// routine the simulated kernel uses, so the comparison is
		// bit-exact, not tolerance-based.
		want := input
		for l := 0; l < layers; l++ {
			next := make([]float32, dim*dim)
			if err := blas.Sgemm(dim, dim, dim, weights[l], want, next); err != nil {
				return 0, false, err
			}
			want = next
		}
		if !bytes.Equal(out, cudart.Float32Bytes(want)) {
			verified = false
		}
		digest.Write(out)
	}

	if err := rt.EventDestroy(event); err != nil {
		return 0, false, err
	}
	if err := rt.StreamDestroy(stream); err != nil {
		return 0, false, err
	}
	for _, p := range ptrs {
		if err := rt.Free(p); err != nil {
			return 0, false, err
		}
	}
	return digest.Sum64(), verified, nil
}

// RunInference runs one inference session through the full middleware —
// client, wire, server, simulated device — over a modeled interconnect
// sharing the run's clock, and reports its (simulated) time alongside the
// spec perfmodel needs to price the same session analytically.
func RunInference(opts InferenceOptions) (InferenceReport, error) {
	if opts.Link == nil {
		return InferenceReport{}, fmt.Errorf("workload: inference needs a network link")
	}
	if opts.Clock == nil {
		opts.Clock = vclock.NewSim()
	}
	if opts.Layers <= 0 {
		opts.Layers = DefaultInferenceLayers
	}
	if opts.Requests <= 0 {
		opts.Requests = DefaultInferenceRequests
	}
	if opts.Polls <= 0 {
		opts.Polls = DefaultInferencePolls
	}

	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		return InferenceReport{}, err
	}
	img, err := mod.Binary()
	if err != nil {
		return InferenceReport{}, err
	}
	var copts []rcuda.ClientOption
	if opts.Batched {
		copts = append(copts, rcuda.WithBatching(0, 0))
	}
	dev := gpu.New(gpu.Config{Clock: opts.Clock})
	server := rcuda.NewServer(dev)
	daemon := rcuda.NewSimDaemon(server, opts.Link, opts.Clock, nil)
	conn, _ := daemon.Dial()
	sw := vclock.NewStopwatch(opts.Clock)
	client, err := rcuda.Open(conn, img, copts...)
	if err != nil {
		_ = conn.Close()
		_ = daemon.Wait()
		return InferenceReport{}, err
	}
	digest, ok, runErr := ExecuteInference(client, opts.Layers, opts.Requests, opts.Polls, opts.Seed)
	closeErr := client.Close()
	elapsed := sw.Elapsed()
	if err := daemon.Wait(); runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return InferenceReport{}, runErr
	}
	if closeErr != nil {
		return InferenceReport{}, closeErr
	}
	wire := conn.Stats()
	return InferenceReport{
		Spec: perfmodel.InferenceSpec{
			ModuleBytes: len(img),
			Layers:      opts.Layers,
			Requests:    opts.Requests,
			Polls:       opts.Polls,
			Batched:     opts.Batched,
			DeviceName:  dev.Name(),
		},
		Network:   opts.Link.Name(),
		Elapsed:   elapsed,
		Digest:    digest,
		Verified:  ok,
		Messages:  wire.MessagesSent,
		BytesSent: wire.BytesSent,
		BytesRecv: wire.BytesRecv,
		Client:    client.Stats(),
		Server:    server.Stats(),
	}, nil
}
