package workload

import (
	"fmt"

	"rcuda/internal/calib"
	"rcuda/internal/cudart"
	"rcuda/internal/fft"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/perfmodel"
	"rcuda/internal/protocol"
	"rcuda/internal/rcuda"
	"rcuda/internal/vclock"
)

// Pipelined remote FFT — the extension experiment built on the async
// support (the paper's future work). The batch is split into chunks; each
// chunk's host-to-device copy, kernel, and device-to-host copy are queued
// asynchronously on one of two streams over two ping-pong device buffers,
// so the server GPU overlaps one chunk's PCIe transfer with another's
// kernel. The wire itself remains synchronous request/response.
//
// As with the base runners there are two modes that agree exactly when
// noise is off: a functional mode driving the real middleware, and an
// analytic mode walking perfmodel.PipelinedSchedule and booking its device
// time on the device's own engine ledger (gpu.Engines).

// RunPipelined executes the FFT case study remotely with the batch split
// into the given number of chunks (≥ 2; the batch must divide evenly).
func RunPipelined(size int, chunks int, opts Options) (Report, error) {
	if opts.Clock == nil {
		opts.Clock = vclock.NewSim()
	}
	if opts.Link == nil {
		return Report{}, fmt.Errorf("workload: pipelined run needs a network link")
	}
	if chunks < 2 {
		return Report{}, fmt.Errorf("workload: pipelining needs at least 2 chunks, got %d", chunks)
	}
	if size%chunks != 0 {
		return Report{}, fmt.Errorf("workload: batch %d does not divide into %d chunks", size, chunks)
	}
	if opts.Functional {
		return runPipelinedFunctional(size, chunks, opts)
	}
	return runPipelinedAnalytic(size, chunks, opts)
}

// runPipelinedAnalytic walks the pipelined schedule, booking each async
// op's device time on the device's engines — a copy's on the copy engine,
// a launch's on the execution engine — and waiting for both at the device
// synchronization.
func runPipelinedAnalytic(size, chunks int, opts Options) (Report, error) {
	sw := vclock.NewStopwatch(opts.Clock)

	// Host-side setup, exactly like the synchronous run.
	parts := Breakdown{
		DataGen: opts.perturb(calib.DataGenTime(calib.FFT, size)),
		Marshal: opts.perturb(calib.MarshalTime(calib.FFT, size)),
		Mgmt:    opts.perturb(calib.Mgmt),
	}
	opts.Clock.Sleep(parts.DataGen)
	opts.Clock.Sleep(parts.Marshal)
	netStart := opts.Clock.Now()

	var eng gpu.Engines
	for _, m := range perfmodel.PipelinedSchedule(size, chunks) {
		opts.Clock.Sleep(opts.perturb(opts.Link.WireTime(m.Send)))
		switch {
		case m.Bulk > 0:
			eng.Book(gpu.CopyEngine, uint32(m.Stream), opts.perturb(m.Device), opts.Clock.Now())
		case m.Device > 0:
			eng.Book(gpu.ExecEngine, uint32(m.Stream), opts.perturb(m.Device), opts.Clock.Now())
		case m.Op == protocol.OpDeviceSynchronize:
			if sim, ok := opts.Clock.(*vclock.Sim); ok {
				sim.AdvanceTo(eng.Idle())
			}
		}
		if m.Recv > 0 {
			opts.Clock.Sleep(opts.perturb(opts.Link.WireTime(m.Recv)))
		}
	}
	parts.Network = opts.Clock.Now() - netStart
	opts.Clock.Sleep(parts.Mgmt)

	return Report{
		CS: calib.FFT, Size: size, Backend: Remote, Network: opts.Link.Name(),
		Total: sw.Elapsed(), Parts: parts,
	}, nil
}

// runPipelinedFunctional drives the real middleware with streams.
func runPipelinedFunctional(size, chunks int, opts Options) (Report, error) {
	if err := checkFunctionalSize(calib.FFT, size); err != nil {
		return Report{}, err
	}
	sw := vclock.NewStopwatch(opts.Clock)
	client, daemon, err := openRemote(calib.FFT, opts)
	if err != nil {
		return Report{}, err
	}

	opts.Clock.Sleep(opts.perturb(calib.DataGenTime(calib.FFT, size)))
	opts.Clock.Sleep(opts.perturb(calib.MarshalTime(calib.FFT, size)))

	report, err := pipelineBody(size, chunks, client, opts)
	if err := closeRemote(client, daemon, err); err != nil {
		return Report{}, err
	}
	opts.Clock.Sleep(opts.perturb(calib.Mgmt))
	report.Total = sw.Elapsed()
	return report, nil
}

func pipelineBody(size, chunks int, client *rcuda.Client, opts Options) (Report, error) {
	chunkBatch := size / chunks
	chunkBytes := uint32(chunkBatch * fft.BytesPerTransform)

	var bufs [2]cudart.DevicePtr
	for i := range bufs {
		p, err := client.Malloc(chunkBytes)
		if err != nil {
			return Report{}, err
		}
		bufs[i] = p
	}
	var streams [2]cudart.Stream
	for i := range streams {
		s, err := client.StreamCreate()
		if err != nil {
			return Report{}, err
		}
		streams[i] = s
	}

	// Generate per-chunk input, queue the pipeline, and collect outputs.
	verified := true
	outs := make([][]byte, chunks)
	for c := 0; c < chunks; c++ {
		s, buf := streams[c%2], bufs[c%2]
		in := make([]complex64, chunkBatch*fft.Points)
		for i := range in {
			in[i] = complex(float32((c+i)%7)-3, float32(i%5)-2)
		}
		raw := cudart.Complex64Bytes(in)
		if err := client.MemcpyToDeviceAsync(buf, raw, s); err != nil {
			return Report{}, err
		}
		if err := client.LaunchAsync(kernels.FFTKernel,
			cudart.Dim3{X: uint32(chunkBatch)}, cudart.Dim3{X: 64}, 0,
			gpu.PackParams(uint32(buf), uint32(chunkBatch), 0), s); err != nil {
			return Report{}, err
		}
		out := make([]byte, len(raw))
		if err := client.MemcpyToHostAsync(out, buf, s); err != nil {
			return Report{}, err
		}
		outs[c] = out

		// Verify against the host FFT.
		want := append([]complex64(nil), in...)
		if err := fft.TransformBatch(fft.Forward, want, fft.Points); err != nil {
			return Report{}, err
		}
		got := cudart.BytesComplex64(out)
		for i := range want {
			dr := real(got[i]) - real(want[i])
			di := imag(got[i]) - imag(want[i])
			if dr*dr+di*di > 1e-4 {
				verified = false
			}
		}
	}
	if err := client.DeviceSynchronize(); err != nil {
		return Report{}, err
	}
	for _, s := range streams {
		if err := client.StreamDestroy(s); err != nil {
			return Report{}, err
		}
	}
	for _, p := range bufs {
		if err := client.Free(p); err != nil {
			return Report{}, err
		}
	}
	return Report{
		CS: calib.FFT, Size: size, Backend: Remote, Network: opts.Link.Name(),
		Verified: verified,
	}, nil
}
