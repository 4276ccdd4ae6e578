// Package workload runs the paper's two case studies — the matrix-matrix
// product and the batched 512-point FFT — on any of three backends: the
// local 8-core CPU (MKL/FFTW stand-ins), a local GPU, or a remote GPU
// through the rCUDA middleware over any modeled interconnect.
//
// Every backend has two execution modes:
//
//   - Functional: the real stack runs end to end — data is generated,
//     marshaled, sent through the middleware, computed by the simulated
//     device's kernels, and verified against an independent CPU oracle.
//     Time still comes from the calibrated models via the simulation clock.
//     Feasible at small problem sizes.
//
//   - Analytic: the same calibrated component costs and the session's
//     message schedule — perfmodel.Schedule, or PipelinedSchedule for a
//     pipelined run — advance the clock without materializing gigabytes of
//     data, making the paper's full problem sizes (up to 3.8 GB of
//     transfers per run) cheap to sweep. By construction the two modes
//     agree exactly when noise is disabled, and a test asserts it; another,
//     TestSchedulesMatchTheWire, holds every perfmodel schedule to the
//     exchanges a functional run of the same session records, message for
//     message.
package workload

import (
	"fmt"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/rcuda"
	"rcuda/internal/vclock"
)

// Backend selects where the case study executes.
type Backend int

// Available backends.
const (
	// CPU runs on the local 8-core processor with high performance
	// libraries, the paper's non-accelerated baseline.
	CPU Backend = iota
	// LocalGPU runs on a GPU in the same node over PCIe.
	LocalGPU
	// Remote runs on a remote GPU through the rCUDA middleware.
	Remote
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case CPU:
		return "CPU"
	case LocalGPU:
		return "GPU"
	case Remote:
		return "rCUDA"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Options configures a run.
type Options struct {
	// Link is the interconnect for the Remote backend.
	Link *netsim.Link
	// Noise perturbs every modeled component; nil runs noiselessly.
	Noise *netsim.Noise
	// Functional executes the real middleware and kernels with real data
	// and verifies the numerical results. Use small sizes.
	Functional bool
	// Clock overrides the time source; a fresh virtual clock by default.
	Clock vclock.Clock
	// Observer, if set, receives every wire exchange of a Remote
	// functional run, pipelined runs included; package trace provides an
	// implementation.
	Observer rcuda.Observer
	// Seed drives functional-mode input data generation. Programs use the
	// zero seed; BenchmarkFunctionalRemoteRun varies it per iteration.
	Seed int64
}

// Breakdown attributes the execution time to components.
type Breakdown struct {
	Init    time.Duration // CUDA context creation (local GPU only)
	DataGen time.Duration // random input generation
	Marshal time.Duration // middleware host-side copies (remote only)
	Network time.Duration // wire time of all messages (remote only)
	PCIe    time.Duration // host-device transfers
	Kernel  time.Duration // device execution
	Compute time.Duration // CPU library execution (CPU backend only)
	Mgmt    time.Duration // fixed middleware management overhead
}

// Report is the outcome of one run.
type Report struct {
	CS       calib.CaseStudy
	Size     int
	Backend  Backend
	Network  string // interconnect name for Remote runs
	Total    time.Duration
	Parts    Breakdown
	Verified bool // results checked against the CPU oracle
}

// Run executes one case study once and reports its (simulated) time.
func Run(cs calib.CaseStudy, size int, backend Backend, opts Options) (Report, error) {
	if size <= 0 {
		return Report{}, fmt.Errorf("workload: non-positive size %d", size)
	}
	if opts.Clock == nil {
		opts.Clock = vclock.NewSim()
	}
	switch backend {
	case CPU:
		return runCPU(cs, size, opts)
	case LocalGPU:
		return runLocalGPU(cs, size, opts)
	case Remote:
		if opts.Link == nil {
			return Report{}, fmt.Errorf("workload: Remote backend needs a network link")
		}
		return runRemote(cs, size, opts)
	default:
		return Report{}, fmt.Errorf("workload: unknown backend %d", backend)
	}
}

// perturb applies the configured noise to a modeled duration.
func (o Options) perturb(d time.Duration) time.Duration {
	if o.Noise == nil {
		return d
	}
	return o.Noise.Perturb(d)
}

// modeled returns the calibrated components of a GPU run — context
// creation on the local GPU, middleware marshaling remotely, and the device
// time of the session's copies (PCIe) and launch (Kernel), which a local
// run does too — each perturbed in field order.
func (o Options) modeled(cs calib.CaseStudy, size int, b Backend) Breakdown {
	var p Breakdown
	if b == LocalGPU {
		p.Init = o.perturb(calib.LocalInit(cs))
	}
	p.DataGen = o.perturb(calib.DataGenTime(cs, size))
	if b == Remote {
		p.Marshal = o.perturb(calib.MarshalTime(cs, size))
	}
	var pcie, kernel time.Duration
	for _, m := range perfmodel.Schedule(cs, size) {
		if m.Bulk > 0 {
			pcie += m.Device
		} else {
			kernel += m.Device
		}
	}
	p.PCIe = o.perturb(pcie)
	p.Kernel = o.perturb(kernel)
	p.Mgmt = o.perturb(calib.Mgmt)
	return p
}

func runCPU(cs calib.CaseStudy, size int, opts Options) (Report, error) {
	sw := vclock.NewStopwatch(opts.Clock)
	compute := opts.perturb(calib.CPUTime(cs, size))
	opts.Clock.Sleep(compute)
	return Report{
		CS: cs, Size: size, Backend: CPU,
		Total: sw.Elapsed(),
		Parts: Breakdown{Compute: compute},
	}, nil
}

func runLocalGPU(cs calib.CaseStudy, size int, opts Options) (Report, error) {
	if opts.Functional {
		return runLocalGPUFunctional(cs, size, opts)
	}
	sw := vclock.NewStopwatch(opts.Clock)
	parts := opts.modeled(cs, size, LocalGPU)
	for _, d := range []time.Duration{parts.Init, parts.DataGen, parts.PCIe, parts.Kernel, parts.Mgmt} {
		opts.Clock.Sleep(d)
	}
	return Report{CS: cs, Size: size, Backend: LocalGPU, Total: sw.Elapsed(), Parts: parts}, nil
}

func runRemote(cs calib.CaseStudy, size int, opts Options) (Report, error) {
	if opts.Functional {
		return runRemoteFunctional(cs, size, opts)
	}
	sw := vclock.NewStopwatch(opts.Clock)
	parts := opts.modeled(cs, size, Remote)
	for _, msg := range perfmodel.Schedule(cs, size) {
		parts.Network += opts.perturb(opts.Link.WireTime(msg.Send))
		if msg.Recv > 0 {
			parts.Network += opts.perturb(opts.Link.WireTime(msg.Recv))
		}
	}
	for _, d := range []time.Duration{parts.DataGen, parts.Marshal, parts.Network, parts.PCIe, parts.Kernel, parts.Mgmt} {
		opts.Clock.Sleep(d)
	}
	return Report{
		CS: cs, Size: size, Backend: Remote, Network: opts.Link.Name(),
		Total: sw.Elapsed(), Parts: parts,
	}, nil
}
