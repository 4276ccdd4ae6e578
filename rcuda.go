// Package rcuda is a pure-Go reproduction of the rCUDA middleware and the
// performance study of "Performance of CUDA Virtualized Remote GPUs in High
// Performance Clusters" (Duato, Peña, Silla, Mayo, Quintana-Ortí —
// ICPP 2011).
//
// It provides:
//
//   - A CUDA Runtime API subset (Runtime) with two interchangeable
//     implementations: a local runtime over a simulated Tesla C1060, and a
//     remote client that forwards every call to an rCUDA server over TCP or
//     over a simulated interconnect.
//   - The rCUDA server daemon (Server), which time-multiplexes one GPU
//     across concurrent clients, one pre-initialized CUDA context each.
//   - Models of the seven networks the paper studies (Network), the two
//     case studies (matrix product and batched 512-point FFT), and the
//     paper's estimation methodology (fixed-time extraction,
//     cross-validation, HPC-network projection).
//
// This file is a façade over the internal packages; see DESIGN.md for the
// architecture and EXPERIMENTS.md for the paper-vs-reproduction results.
package rcuda

import (
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	mw "rcuda/internal/rcuda"
	"rcuda/internal/trace"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
	"rcuda/internal/workload"
)

// Core types, re-exported from the internal packages.
type (
	// Runtime is the CUDA Runtime API subset rCUDA virtualizes. Both the
	// local GPU runtime and the remote client satisfy it.
	Runtime = cudart.Runtime
	// DevicePtr is a 32-bit device address.
	DevicePtr = cudart.DevicePtr
	// Dim3 is a kernel launch geometry triple.
	Dim3 = cudart.Dim3
	// Device is a simulated CUDA device.
	Device = gpu.Device
	// DeviceConfig parameterizes a simulated device.
	DeviceConfig = gpu.Config
	// Module is a loadable GPU module.
	Module = gpu.Module
	// Server is the rCUDA daemon.
	Server = mw.Server
	// Client is the remote runtime.
	Client = mw.Client
	// Network models one cluster interconnect.
	Network = netsim.Link
	// Noise is a deterministic measurement-jitter source.
	Noise = netsim.Noise
	// Clock abstracts simulated or wall time.
	Clock = vclock.Clock
	// SimClock is a deterministic virtual clock.
	SimClock = vclock.Sim
	// Stream is a CUDA stream handle (zero = the default stream).
	Stream = cudart.Stream
	// Event is a CUDA event handle.
	Event = cudart.Event
	// AsyncRuntime extends Runtime with streams, async copies and events.
	AsyncRuntime = cudart.AsyncRuntime
	// CaseStudy selects one of the paper's two workloads.
	CaseStudy = calib.CaseStudy
	// Model is the paper's network-performance estimation model.
	Model = perfmodel.Model
	// TraceRecorder records the client-server dialogue (Figure 2).
	TraceRecorder = trace.Recorder
	// TrackedRuntime adds cudaGetLastError/cudaPeekAtLastError semantics
	// to any Runtime; create one with Track.
	TrackedRuntime = cudart.TrackedRuntime
	// ClientOption configures the remote client (batching, chunked
	// transfers, retry/reconnect).
	ClientOption = mw.ClientOption
)

// WithBatching coalesces fire-and-forget calls (async copies, launches,
// event records, memsets) into one wire frame that flushes at the next
// synchronizing call, and caches immutable device-query replies for the
// lifetime of the connection. Zero arguments select the defaults
// (DefaultBatchOps ops / DefaultBatchBytes bytes per frame).
func WithBatching(maxOps, maxBytes int) ClientOption { return mw.WithBatching(maxOps, maxBytes) }

// Default per-frame batching limits (see DESIGN.md §6 for why the byte
// cap stays below GigaE's small-message regime).
const (
	DefaultBatchOps   = mw.DefaultBatchOps
	DefaultBatchBytes = mw.DefaultBatchBytes
)

// WithChunkedTransfers streams copies at or above the threshold as
// pipelined chunks so the server overlaps the wire with PCIe. Pays off on
// fast interconnects only; see DESIGN.md §6.
func WithChunkedTransfers(threshold, chunkSize int) ClientOption {
	return mw.WithChunkedTransfers(threshold, chunkSize)
}

// WithRetry gives every call a time budget: transient transport faults
// are retried with exponential backoff while it lasts, and a daemon that
// stops answering fails the call once it is spent (DESIGN.md §6 "Retry").
func WithRetry(budget time.Duration) ClientOption {
	return mw.WithRetry(budget)
}

// WithReconnect redials through the given function and reattaches the
// durable session when the connection is lost mid-run. Reconnecting
// invalidates any cached device-query replies.
func WithReconnect(dial func() (transport.Conn, error)) ClientOption {
	return mw.WithReconnect(dial)
}

// WithSchedClass declares the session's scheduling class and weight in
// the hello, for daemons running the multi-tenant scheduler (rcudad
// -sched). Daemons without the scheduler accept and ignore it. Weight 0
// keeps the server's default; class SchedBatch is what an undeclared
// session gets.
func WithSchedClass(class, weight uint32) ClientOption {
	return mw.WithSchedClass(class, weight)
}

// Scheduling classes for WithSchedClass, in descending priority.
const (
	SchedRealtime   = mw.SchedRealtime
	SchedBatch      = mw.SchedBatch
	SchedBestEffort = mw.SchedBestEffort
)

// Track wraps a runtime (local or remote) with CUDA's sticky-error
// protocol.
func Track(rt Runtime) *TrackedRuntime { return cudart.Track(rt) }

// The two case studies.
const (
	MM  = calib.MM
	FFT = calib.FFT
)

// NewDevice creates a simulated Tesla C1060 running on wall time, suitable
// for serving real TCP clients.
func NewDevice() *Device {
	return gpu.New(gpu.Config{Clock: vclock.NewWall()})
}

// NewSimDevice creates a simulated device on a virtual clock, for
// deterministic discrete-event runs.
func NewSimDevice(clock Clock) *Device {
	return gpu.New(gpu.Config{Clock: clock})
}

// NewSimClock returns a fresh virtual clock at time zero.
func NewSimClock() *SimClock { return vclock.NewSim() }

// NewServer creates an rCUDA daemon for the device.
func NewServer(dev *Device) *Server { return mw.NewServer(dev) }

// Dial connects to an rCUDA server over TCP (Nagle disabled, as in the
// paper) and opens a session with the given GPU module image.
func Dial(addr string, module []byte, opts ...ClientOption) (*Client, error) {
	conn, err := transport.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	c, err := mw.Open(conn, module, opts...)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// OpenLocal initializes the CUDA runtime directly on a local device with
// the application's module loaded — the paper's "local GPU" baseline.
func OpenLocal(dev *Device, module *Module) (Runtime, error) {
	return cudart.OpenLocal(dev, module)
}

// CaseStudyModule returns the registered GPU module of a case study
// (Volkov SGEMM or the batched 512-point FFT).
func CaseStudyModule(cs CaseStudy) (*Module, error) { return kernels.ModuleFor(cs) }

// Kernel names of the case-study modules.
const (
	SgemmKernel = kernels.SgemmKernel
	FFTKernel   = kernels.FFTKernel
)

// PackParams packs 32-bit kernel parameters the way the launch message
// carries them.
func PackParams(vals ...uint32) []byte { return gpu.PackParams(vals...) }

// Float32Bytes serializes float32 data to device byte order.
func Float32Bytes(xs []float32) []byte { return cudart.Float32Bytes(xs) }

// BytesFloat32 deserializes device bytes to float32 data.
func BytesFloat32(b []byte) []float32 { return cudart.BytesFloat32(b) }

// Networks returns every interconnect of the paper: GigaE, 40GI, 10GE,
// 10GI, Myr, F-HT, A-HT.
func Networks() []*Network { return netsim.All() }

// NetworkByName resolves an interconnect by its table name.
func NetworkByName(name string) (*Network, error) { return netsim.ByName(name) }

// ProblemSizes returns the problem sizes the paper evaluates for a case
// study (matrix dimensions for MM, batch counts for FFT).
func ProblemSizes(cs CaseStudy) []int { return calib.Sizes(cs) }

// BuildModel derives the paper's estimation model from measured execution
// times (size → time in seconds) on a source network.
func BuildModel(cs CaseStudy, source *Network, measuredSeconds map[int]float64) (*Model, error) {
	meas := make(map[int]time.Duration, len(measuredSeconds))
	for size, s := range measuredSeconds {
		meas[size] = time.Duration(s * float64(time.Second))
	}
	return perfmodel.Build(cs, source, meas)
}

// MeasureRemote simulates the paper's measurement campaign: it runs the
// case study through the full middleware over the given network for every
// paper problem size and returns mean execution times in seconds.
func MeasureRemote(cs CaseStudy, link *Network, reps int, seed int64) (map[int]float64, error) {
	var noise *Noise
	if seed != 0 {
		noise = netsim.NewNoise(seed, 0.004)
	}
	series, err := workload.MeasureSeries(cs, workload.Remote,
		workload.Options{Link: link, Noise: noise}, reps)
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(series))
	for size, d := range series {
		out[size] = d.Seconds()
	}
	return out, nil
}
