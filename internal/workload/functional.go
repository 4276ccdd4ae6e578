package workload

import (
	"fmt"
	"math"
	"math/rand"

	"rcuda/internal/blas"
	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/fft"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/rcuda"
	"rcuda/internal/vclock"
)

// maxFunctionalSize bounds functional runs: an MM run at 1024 already moves
// 12 MiB through the middleware and 2·1024³ real floating-point operations
// through the kernel. The paper-scale sweeps use the analytic mode.
const maxFunctionalSize = 1024

func checkFunctionalSize(cs calib.CaseStudy, size int) error {
	if size > maxFunctionalSize {
		return fmt.Errorf("workload: functional %v run at size %d exceeds limit %d; use analytic mode",
			cs, size, maxFunctionalSize)
	}
	if cs == calib.MM && size%16 != 0 {
		return fmt.Errorf("workload: functional MM size %d must be a multiple of the 16x16 block", size)
	}
	return nil
}

// runLocalGPUFunctional drives the cudart.Local runtime with real data.
func runLocalGPUFunctional(cs calib.CaseStudy, size int, opts Options) (Report, error) {
	if err := checkFunctionalSize(cs, size); err != nil {
		return Report{}, err
	}
	sw := vclock.NewStopwatch(opts.Clock)
	dev := gpu.New(gpu.Config{Clock: opts.Clock, Jitter: opts.Noise})
	mod, err := kernels.ModuleFor(cs)
	if err != nil {
		return Report{}, err
	}
	var open []cudart.LocalOption
	if calib.LocalInit(cs) == 0 {
		open = append(open, cudart.Preinitialized())
	}
	rt, err := cudart.OpenLocal(dev, mod, open...)
	if err != nil {
		return Report{}, err
	}
	defer rt.Close()

	verified, err := executeOnRuntime(cs, size, rt, opts)
	if err != nil {
		return Report{}, err
	}
	return Report{
		CS: cs, Size: size, Backend: LocalGPU,
		Total:    sw.Elapsed(),
		Verified: verified,
		Parts:    Options{}.modeled(cs, size, LocalGPU),
	}, nil
}

// runRemoteFunctional drives the full middleware — client, wire, server,
// device — over a simulated interconnect sharing the run's clock.
func runRemoteFunctional(cs calib.CaseStudy, size int, opts Options) (Report, error) {
	if err := checkFunctionalSize(cs, size); err != nil {
		return Report{}, err
	}
	sw := vclock.NewStopwatch(opts.Clock)
	client, daemon, err := openRemote(cs, opts)
	if err != nil {
		return Report{}, err
	}

	// The middleware's host-side marshaling cost, charged up front (in the
	// real middleware it is spread across the calls).
	opts.Clock.Sleep(opts.perturb(calib.MarshalTime(cs, size)))

	verified, err := executeOnRuntime(cs, size, client, opts)
	if err := closeRemote(client, daemon, err); err != nil {
		return Report{}, err
	}
	return Report{
		CS: cs, Size: size, Backend: Remote, Network: opts.Link.Name(),
		Total:    sw.Elapsed(),
		Verified: verified,
		Parts:    Options{}.modeled(cs, size, Remote),
	}, nil
}

// openRemote serves a fresh device on the run's clock over the run's link
// and opens a session on it with the case study's module, reporting its
// exchanges to the run's observer.
func openRemote(cs calib.CaseStudy, opts Options) (*rcuda.Client, *rcuda.SimDaemon, error) {
	mod, err := kernels.ModuleFor(cs)
	if err != nil {
		return nil, nil, err
	}
	img, err := mod.Binary()
	if err != nil {
		return nil, nil, err
	}
	dev := gpu.New(gpu.Config{Clock: opts.Clock, Jitter: opts.Noise})
	daemon := rcuda.NewSimDaemon(rcuda.NewServer(dev), opts.Link, opts.Clock, opts.Noise)
	client, err := daemon.Open(img, rcuda.WithObserver(opts.Observer))
	if err != nil {
		_ = daemon.Wait()
		return nil, nil, err
	}
	return client, daemon, nil
}

// closeRemote ends a session openRemote opened: it closes the client, waits
// for the daemon, and returns the run's error, else the daemon's (a leak
// included), else the close's.
func closeRemote(client *rcuda.Client, daemon *rcuda.SimDaemon, runErr error) error {
	closeErr := client.Close()
	if err := daemon.Wait(); runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return runErr
	}
	return closeErr
}

// ExecuteFunctional performs the case study's execution phases — alloc,
// transfer, launch, read back, free — against any cudart.Runtime with real
// data, verifying the result against the CPU oracle. Unlike Run it charges
// no clock time for data generation or management: the caller owns the
// schedule, which is what the broker's live-makespan harness needs.
func ExecuteFunctional(cs calib.CaseStudy, size int, rt cudart.Runtime, seed int64) (bool, error) {
	if err := checkFunctionalSize(cs, size); err != nil {
		return false, err
	}
	switch cs {
	case calib.MM:
		return executeMM(size, rt, seed)
	default:
		return executeFFT(size, rt, seed)
	}
}

// executeOnRuntime performs the case study's seven-phase execution against
// any cudart.Runtime (local or remote) and verifies the result against the
// CPU oracle. It charges data generation and management time on the run's
// clock; PCIe, kernel, and (for remote runtimes) wire time are charged by
// the layers below.
func executeOnRuntime(cs calib.CaseStudy, size int, rt cudart.Runtime, opts Options) (bool, error) {
	opts.Clock.Sleep(opts.perturb(calib.DataGenTime(cs, size)))
	defer opts.Clock.Sleep(opts.perturb(calib.Mgmt))
	return ExecuteFunctional(cs, size, rt, opts.Seed)
}

func executeMM(m int, rt cudart.Runtime, seed int64) (bool, error) {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float32, m*m)
	b := make([]float32, m*m)
	for i := range a {
		a[i] = rng.Float32()*2 - 1
		b[i] = rng.Float32()*2 - 1
	}
	nbytes := uint32(4 * m * m)
	ptrs := make([]cudart.DevicePtr, 3)
	for i := range ptrs {
		p, err := rt.Malloc(nbytes)
		if err != nil {
			return false, err
		}
		ptrs[i] = p
	}
	if err := rt.MemcpyToDevice(ptrs[0], cudart.Float32Bytes(a)); err != nil {
		return false, err
	}
	if err := rt.MemcpyToDevice(ptrs[1], cudart.Float32Bytes(b)); err != nil {
		return false, err
	}
	grid := cudart.Dim3{X: uint32(m / 16), Y: uint32(m / 16)}
	block := cudart.Dim3{X: 16, Y: 16}
	if err := rt.Launch(kernels.SgemmKernel, grid, block, 0,
		gpu.PackParams(uint32(ptrs[0]), uint32(ptrs[1]), uint32(ptrs[2]), uint32(m))); err != nil {
		return false, err
	}
	out := make([]byte, nbytes)
	if err := rt.MemcpyToHost(out, ptrs[2]); err != nil {
		return false, err
	}
	for _, p := range ptrs {
		if err := rt.Free(p); err != nil {
			return false, err
		}
	}
	// Verify against the independent CPU implementation.
	want := make([]float32, m*m)
	if err := blas.Sgemm(m, m, m, a, b, want); err != nil {
		return false, err
	}
	got := cudart.BytesFloat32(out)
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-3*float64(m) {
			return false, fmt.Errorf("workload: MM result mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
	return true, nil
}

func executeFFT(batch int, rt cudart.Runtime, seed int64) (bool, error) {
	rng := rand.New(rand.NewSource(seed))
	signal := make([]complex64, batch*fft.Points)
	for i := range signal {
		signal[i] = complex(rng.Float32()*2-1, rng.Float32()*2-1)
	}
	raw := cudart.Complex64Bytes(signal)
	ptr, err := rt.Malloc(uint32(len(raw)))
	if err != nil {
		return false, err
	}
	if err := rt.MemcpyToDevice(ptr, raw); err != nil {
		return false, err
	}
	if err := rt.Launch(kernels.FFTKernel, cudart.Dim3{X: uint32(batch)}, cudart.Dim3{X: 64}, 0,
		gpu.PackParams(uint32(ptr), uint32(batch), 0)); err != nil {
		return false, err
	}
	out := make([]byte, len(raw))
	if err := rt.MemcpyToHost(out, ptr); err != nil {
		return false, err
	}
	if err := rt.Free(ptr); err != nil {
		return false, err
	}
	// Verify against the independent CPU implementation.
	want := append([]complex64(nil), signal...)
	if err := fft.TransformBatch(fft.Forward, want, fft.Points); err != nil {
		return false, err
	}
	gotF := cudart.BytesFloat32(out)
	for i := range want {
		gr, gi := gotF[2*i], gotF[2*i+1]
		if math.Abs(float64(gr-real(want[i]))) > 1e-2 || math.Abs(float64(gi-imag(want[i]))) > 1e-2 {
			return false, fmt.Errorf("workload: FFT result mismatch at point %d", i)
		}
	}
	return true, nil
}
