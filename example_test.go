package rcuda_test

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"rcuda"
	"rcuda/internal/calib"
	"rcuda/internal/cluster"
	"rcuda/internal/fft"
	"rcuda/internal/kernels"
	"rcuda/internal/perfmodel"
	"rcuda/internal/workload"
)

// ExampleNewSimSession runs a tiny matrix product on a simulated remote GPU
// over the 40 Gbps InfiniBand model and reports the result and the modeled
// time regime.
func ExampleNewSimSession() {
	link, err := rcuda.NetworkByName("40GI")
	must(err)
	mod, err := rcuda.CaseStudyModule(rcuda.MM)
	must(err)
	img, err := mod.Binary()
	must(err)
	sess, err := rcuda.NewSimSession(link, img, nil)
	must(err)
	defer sess.Close()

	const m = 16
	a := make([]float32, m*m)
	b := make([]float32, m*m)
	for i := range a {
		a[i], b[i] = 1, 2 // all-ones times all-twos
	}
	var ptrs [3]rcuda.DevicePtr
	for i := range ptrs {
		ptrs[i], err = sess.Client.Malloc(4 * m * m)
		must(err)
	}
	must(sess.Client.MemcpyToDevice(ptrs[0], rcuda.Float32Bytes(a)))
	must(sess.Client.MemcpyToDevice(ptrs[1], rcuda.Float32Bytes(b)))
	must(sess.Client.Launch(rcuda.SgemmKernel,
		rcuda.Dim3{X: 1}, rcuda.Dim3{X: 16}, 0,
		rcuda.PackParams(uint32(ptrs[0]), uint32(ptrs[1]), uint32(ptrs[2]), m)))
	out := make([]byte, 4*m*m)
	must(sess.Client.MemcpyToHost(out, ptrs[2]))

	fmt.Printf("C[0,0] = %.0f\n", rcuda.BytesFloat32(out)[0])
	fmt.Printf("virtual time advanced: %v\n", sess.Clock.Now() > 0)
	// Output:
	// C[0,0] = 32
	// virtual time advanced: true
}

// ExampleBuildModel reproduces the paper's estimation flow: simulate
// measurements on 1 Gbps Ethernet, build the model, and predict the
// execution time on 40 Gbps InfiniBand.
func ExampleBuildModel() {
	gigaE, err := rcuda.NetworkByName("GigaE")
	must(err)
	ib40, err := rcuda.NetworkByName("40GI")
	must(err)
	// Noiseless measurement campaign (seed 0 disables jitter).
	measured, err := rcuda.MeasureRemote(rcuda.MM, gigaE, 1, 0)
	must(err)
	model, err := rcuda.BuildModel(rcuda.MM, gigaE, measured)
	must(err)
	est, err := model.Estimate(ib40, 8192)
	must(err)
	// The paper measured 9.34 s on the real 40GI testbed (Table IV).
	fmt.Printf("predicted 40GI time for m=8192: %.1f s\n", est.Seconds())
	// Output:
	// predicted 40GI time for m=8192: 9.4 s
}

// ExampleNetworkByName lists the effective bandwidth of every interconnect
// the paper studies.
func ExampleNetworkByName() {
	for _, n := range rcuda.Networks() {
		fmt.Printf("%s: %.1f MB/s\n", n.Name(), n.Bandwidth())
	}
	// Output:
	// GigaE: 112.4 MB/s
	// 40GI: 1367.1 MB/s
	// 10GE: 880.0 MB/s
	// 10GI: 970.0 MB/s
	// Myr: 750.0 MB/s
	// F-HT: 1442.0 MB/s
	// A-HT: 2884.0 MB/s
}

// ExampleDial starts an rCUDA server on localhost, connects a client over
// real TCP, and runs a small matrix multiplication on the "remote" GPU —
// the application code only sees the CUDA-like Runtime interface.
func ExampleDial() {
	// 1. The server side: a node that owns a GPU runs the daemon.
	dev := rcuda.NewDevice()
	server := rcuda.NewServer(dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	go func() { must(server.Serve(ln)) }()
	defer server.Close()
	fmt.Println("rCUDA daemon serving", dev.Name(), "on localhost")

	// 2. The client side: any node in the cluster opens a session by
	// sending its GPU module, then uses the remote GPU as if local.
	mod, err := rcuda.CaseStudyModule(rcuda.MM)
	must(err)
	img, err := mod.Binary()
	must(err)
	client, err := rcuda.Dial(ln.Addr().String(), img)
	must(err)
	defer client.Close()
	maj, min := client.Capability()
	fmt.Printf("connected: remote device reports compute capability %d.%d\n", maj, min)

	// 3. C = A·B on the remote GPU.
	const m = 32
	rng := rand.New(rand.NewSource(1))
	a := make([]float32, m*m)
	b := make([]float32, m*m)
	for i := range a {
		a[i] = rng.Float32()
		b[i] = rng.Float32()
	}
	nbytes := uint32(4 * m * m)
	var ptrs [3]rcuda.DevicePtr
	for i := range ptrs {
		ptrs[i], err = client.Malloc(nbytes)
		must(err)
	}
	must(client.MemcpyToDevice(ptrs[0], rcuda.Float32Bytes(a)))
	must(client.MemcpyToDevice(ptrs[1], rcuda.Float32Bytes(b)))
	must(client.Launch(rcuda.SgemmKernel,
		rcuda.Dim3{X: m / 16, Y: m / 16}, rcuda.Dim3{X: 16, Y: 16}, 0,
		rcuda.PackParams(uint32(ptrs[0]), uint32(ptrs[1]), uint32(ptrs[2]), m)))
	out := make([]byte, nbytes)
	must(client.MemcpyToHost(out, ptrs[2]))
	for _, p := range ptrs {
		must(client.Free(p))
	}

	c := rcuda.BytesFloat32(out)
	fmt.Printf("C[0,0] = %.4f, C[%d,%d] = %.4f — computed on the remote GPU\n",
		c[0], m-1, m-1, c[m*m-1])
	// Output:
	// rCUDA daemon serving Tesla C1060 (simulated) on localhost
	// connected: remote device reports compute capability 1.3
	// C[0,0] = 8.0036, C[31,31] = 8.1358 — computed on the remote GPU
}

// ExampleMeasureRemote sweeps the paper's matrix-product case study: it
// "measures" the remote execution over GigaE with the calibrated simulator,
// builds the estimation model, and projects the execution time onto every
// HPC interconnect — the left-hand plots of Figures 5 and 6, and the
// paper's question: is a remote GPU worth it for this workload? (For MM:
// yes, on every HPC network.)
func ExampleMeasureRemote() {
	gigaE, err := rcuda.NetworkByName("GigaE")
	must(err)
	// Measure over GigaE (30 reps, seeded noise), then build the model
	// from those measurements alone.
	measured, err := rcuda.MeasureRemote(rcuda.MM, gigaE, 30, 1)
	must(err)
	model, err := rcuda.BuildModel(rcuda.MM, gigaE, measured)
	must(err)

	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "m\tCPU (s)\tlocal GPU (s)\tGigaE (s)\t10GE\t10GI\tMyr\tF-HT\tA-HT\tbest choice")
	for _, size := range rcuda.ProblemSizes(rcuda.MM) {
		cpu, err := workload.Run(calib.MM, size, workload.CPU, workload.Options{})
		must(err)
		gpu, err := workload.Run(calib.MM, size, workload.LocalGPU, workload.Options{})
		must(err)
		row := fmt.Sprintf("%d\t%.2f\t%.2f\t%.2f", size, cpu.Total.Seconds(), gpu.Total.Seconds(), measured[size])
		best, bestT := "CPU", cpu.Total.Seconds()
		if gpu.Total.Seconds() < bestT {
			best, bestT = "local GPU", gpu.Total.Seconds()
		}
		for _, name := range []string{"10GE", "10GI", "Myr", "F-HT", "A-HT"} {
			link, err := rcuda.NetworkByName(name)
			must(err)
			est, err := model.Estimate(link, size)
			must(err)
			row += fmt.Sprintf("\t%.2f", est.Seconds())
			if est.Seconds() < bestT {
				best, bestT = "rCUDA/"+name, est.Seconds()
			}
		}
		fmt.Fprintf(w, "%s\t%s\n", row, best)
	}
	must(w.Flush())
	fmt.Println("\nThe matrix product is compute-bound (O(m³) work over O(m²) data):")
	fmt.Println("a virtualized remote GPU beats the 8-core CPU on every HPC network,")
	fmt.Println("and on fast interconnects it runs within a few percent of a local GPU.")
	// Output:
	// m      CPU (s)  local GPU (s)  GigaE (s)  10GE   10GI   Myr    F-HT   A-HT   best choice
	// 4096   2.08     2.40           3.65       2.16   2.14   2.20   2.08   2.01   rCUDA/A-HT
	// 6144   5.66     4.58           8.40       5.05   5.00   5.13   4.86   4.71   local GPU
	// 8192   11.99    8.12           15.62      9.66   9.58   9.81   9.32   9.06   local GPU
	// 10240  21.52    13.30          25.55      16.24  16.11  16.47  15.70  15.29  local GPU
	// 12288  35.45    20.37          38.55      25.14  24.96  25.48  24.37  23.77  local GPU
	// 14336  54.00    29.64          54.68      36.43  36.18  36.89  35.39  34.57  local GPU
	// 16384  78.87    41.43          75.06      51.22  50.89  51.82  49.86  48.79  local GPU
	// 18432  109.12   55.86          98.81      68.64  68.23  69.40  66.92  65.57  local GPU
	//
	// The matrix product is compute-bound (O(m³) work over O(m²) data):
	// a virtualized remote GPU beats the 8-core CPU on every HPC network,
	// and on fast interconnects it runs within a few percent of a local GPU.
}

// Example_fftBatch sweeps the paper's second case study — batches of
// 512-point FFTs — and shows the opposite conclusion from the matrix
// product: the FFT's O(n log n) compute over O(n) data is too
// transfer-heavy for GPU offload, local or remote. It also verifies a small
// batch end to end through the real middleware (numerics checked against
// the CPU FFT).
func Example_fftBatch() {
	ib40, err := rcuda.NetworkByName("40GI")
	must(err)
	// First, a functional run: a real batch of 128 transforms through the
	// full client/server stack over the simulated 40 Gbps InfiniBand.
	r, err := workload.Run(calib.FFT, 128, workload.Remote, workload.Options{Link: ib40, Functional: true})
	must(err)
	fmt.Printf("functional check: batch=128 over %s, verified=%v, simulated time %v\n\n",
		r.Network, r.Verified, r.Total)

	// Then the paper-scale sweep with the estimation model.
	measured, err := rcuda.MeasureRemote(rcuda.FFT, ib40, 30, 2)
	must(err)
	model, err := rcuda.BuildModel(rcuda.FFT, ib40, measured)
	must(err)
	aht, err := rcuda.NetworkByName("A-HT")
	must(err)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "batch\tCPU (ms)\tlocal GPU (ms)\t40GI (ms)\tA-HT est (ms)\tGPU-eligible\tremote worth it")
	for _, batch := range rcuda.ProblemSizes(rcuda.FFT) {
		cpu, err := workload.Run(calib.FFT, batch, workload.CPU, workload.Options{})
		must(err)
		gpu, err := workload.Run(calib.FFT, batch, workload.LocalGPU, workload.Options{})
		must(err)
		est, err := model.Estimate(aht, batch)
		must(err)
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%.2f\t%.2f\t%v\t%v\n", batch,
			cpu.Total.Seconds()*1e3, gpu.Total.Seconds()*1e3, measured[batch]*1e3, est.Seconds()*1e3,
			gpu.Total < cpu.Total, est < cpu.Total)
	}
	must(w.Flush())
	fmt.Println("\nEven on the fastest modeled interconnect (A-HT, 2884 MB/s) the remote")
	fmt.Println("FFT loses to the 8-core CPU — and so does the local GPU: the data")
	fmt.Println("transfer dominates. As the paper concludes, problems that are not")
	fmt.Println("GPU-eligible locally gain nothing from GPU remoting.")
	// Output:
	// functional check: batch=128 over 40GI, verified=true, simulated time 15.435746ms
	//
	// batch  CPU (ms)  local GPU (ms)  40GI (ms)  A-HT est (ms)  GPU-eligible  remote worth it
	// 2048   41.67     51.00           167.37     161.22         false         false
	// 4096   74.67     102.33          226.17     213.86         false         false
	// 6144   115.67    153.33          306.54     288.07         false         false
	// 8192   150.33    201.67          379.95     355.32         false         false
	// 10240  187.33    253.33          458.04     427.26         false         false
	// 12288  224.67    304.67          538.10     501.17         false         false
	// 16384  299.00    403.00          696.42     647.18         false         false
	//
	// Even on the fastest modeled interconnect (A-HT, 2884 MB/s) the remote
	// FFT loses to the 8-core CPU — and so does the local GPU: the data
	// transfer dominates. As the paper concludes, problems that are not
	// GPU-eligible locally gain nothing from GPU remoting.
}

// ExampleModel answers the cluster-design question that motivates the
// paper: should a cluster keep a GPU in every node, or can it virtualize a
// few remote ones? It measures the matrix product at m = 8192 on the
// 40 Gbps InfiniBand testbed network, builds the estimation model, and
// predicts the time and verdict on 10 Gbps InfiniBand — the paper's "tool
// to determine the behavior of our proposal over different interconnects
// with no need of the physical equipment".
func ExampleModel() {
	const size = 8192
	target, err := rcuda.NetworkByName("10GI")
	must(err)
	source, err := rcuda.NetworkByName("40GI")
	must(err)
	measured, err := rcuda.MeasureRemote(rcuda.MM, source, 30, 7)
	must(err)
	model, err := rcuda.BuildModel(rcuda.MM, source, measured)
	must(err)
	e, err := perfmodel.Eligible(model, target, size)
	must(err)

	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	fmt.Printf("workload:        %s, size %d\n", rcuda.MM, size)
	fmt.Printf("interconnect:    %s (%.0f MB/s effective one-way)\n", target.Name(), target.Bandwidth())
	fmt.Printf("local CPU:       %v (8 cores, high performance libraries)\n", ms(e.CPU))
	fmt.Printf("local GPU:       %v\n", ms(e.LocalGPU))
	fmt.Printf("remote GPU est.: %v over %s\n\n", ms(e.Remote), target.Name())
	switch {
	case !e.GPUWorth:
		fmt.Println("verdict: NOT GPU-ELIGIBLE — the CPU beats even a local GPU; keep it on the CPU.")
	case e.RemoteOK:
		fmt.Printf("verdict: VIRTUALIZE — a remote GPU over %s is %.0f%% faster than the CPU;\n",
			target.Name(), e.SpeedupPc)
		fmt.Println("a cluster with a few shared GPUs serves this workload well.")
	default:
		fmt.Printf("verdict: LOCAL GPU ONLY — the workload wants a GPU, but %s is too slow\n", target.Name())
		fmt.Println("to remote it; either use a faster interconnect or keep per-node GPUs.")
	}
	if cross, ok := perfmodel.CrossoverSize(model, target); ok {
		fmt.Printf("\ncrossover: the remote GPU starts beating the CPU at size %d on %s\n", cross, target.Name())
	} else {
		fmt.Printf("\ncrossover: the remote GPU never beats the CPU on %s at the studied sizes\n", target.Name())
	}
	if bw, ok := perfmodel.MinimumBandwidth(model, size); ok {
		fmt.Printf("bandwidth floor: any interconnect above %.0f MB/s one-way makes size %d worth remoting\n", bw, size)
	} else {
		fmt.Printf("bandwidth floor: no interconnect speed makes size %d worth remoting\n", size)
	}
	// Output:
	// workload:        MM, size 8192
	// interconnect:    10GI (970 MB/s effective one-way)
	// local CPU:       11.99s (8 cores, high performance libraries)
	// local GPU:       8.12s
	// remote GPU est.: 9.566s over 10GI
	//
	// verdict: VIRTUALIZE — a remote GPU over 10GI is 25% faster than the CPU;
	// a cluster with a few shared GPUs serves this workload well.
	//
	// crossover: the remote GPU starts beating the CPU at size 6144 on 10GI
	// bandwidth floor: any interconnect above 239 MB/s one-way makes size 8192 worth remoting
}

// ExampleStream demonstrates the asynchronous extension (the paper defers
// "asynchronous transfers" to future work): it runs a chunked batch of
// 512-point FFTs on the remote GPU twice — first serialized with
// synchronous calls, then double-buffered with two CUDA streams so each
// chunk's PCIe transfer overlaps the previous chunk's kernel — and reports
// the modeled speedup.
func ExampleStream() {
	link, err := rcuda.NetworkByName("40GI")
	must(err)
	serial, overlapped := chunkedFFT(link, false), chunkedFFT(link, true)
	fmt.Printf("batched FFT, %d chunks x %d transforms over %s:\n", fftChunks, fftChunkBatch, link.Name())
	fmt.Printf("  synchronous (paper's model):   %v\n", serial.Round(time.Microsecond))
	fmt.Printf("  double-buffered (2 streams):   %v\n", overlapped.Round(time.Microsecond))
	fmt.Printf("  overlap speedup:               %.2fx\n", float64(serial)/float64(overlapped))
	fmt.Println("\nThe device-side PCIe copies overlap kernels of the other stream;")
	fmt.Println("the wire itself stays synchronous, as in the paper's protocol.")
	// Output:
	// batched FFT, 8 chunks x 256 transforms over 40GI:
	//   synchronous (paper's model):   43.316ms
	//   double-buffered (2 streams):   36.447ms
	//   overlap speedup:               1.19x
	//
	// The device-side PCIe copies overlap kernels of the other stream;
	// the wire itself stays synchronous, as in the paper's protocol.
}

const (
	fftChunks     = 8
	fftChunkBatch = 256 // transforms per chunk
)

// chunkedFFT runs ExampleStream's chunked workload, on one stream per
// buffer when overlapped, and returns its simulated makespan.
func chunkedFFT(link *rcuda.Network, overlapped bool) time.Duration {
	mod, err := rcuda.CaseStudyModule(rcuda.FFT)
	must(err)
	img, err := mod.Binary()
	must(err)
	sess, err := rcuda.NewSimSession(link, img, nil)
	must(err)
	defer sess.Close()
	client := sess.Client

	chunkBytes := uint32(fftChunkBatch * fft.BytesPerTransform)
	var bufs [2]rcuda.DevicePtr
	var streams [2]rcuda.Stream
	for i := range bufs {
		bufs[i], err = client.Malloc(chunkBytes)
		must(err)
	}
	data := make([]byte, chunkBytes)
	start := sess.Clock.Now()
	if overlapped {
		for i := range streams {
			streams[i], err = client.StreamCreate()
			must(err)
		}
	}
	for c := 0; c < fftChunks; c++ {
		buf, s := bufs[c%2], streams[c%2]
		params := rcuda.PackParams(uint32(buf), fftChunkBatch, 0)
		if overlapped {
			must(client.MemcpyToDeviceAsync(buf, data, s))
			must(client.LaunchAsync(rcuda.FFTKernel, rcuda.Dim3{X: fftChunkBatch}, rcuda.Dim3{X: 64}, 0, params, s))
		} else {
			must(client.MemcpyToDevice(buf, data))
			must(client.Launch(rcuda.FFTKernel, rcuda.Dim3{X: fftChunkBatch}, rcuda.Dim3{X: 64}, 0, params))
		}
	}
	if overlapped {
		must(client.DeviceSynchronize())
	}
	elapsed := sess.Clock.Now() - start
	for _, p := range bufs {
		must(client.Free(p))
	}
	return elapsed
}

// Example_stencil runs an iterative Jacobi heat-equation solver on a
// remote GPU — the kind of computational-fluid-dynamics workload the
// paper's introduction motivates, and the best case for GPU remoting: the
// grid crosses the network once in each direction while every one of the
// hundreds of iterations costs only a ~70-byte launch message (the
// ping-pong buffers swap client-side). Each solve is verified against a
// host solver and timed on the virtual clock.
func Example_stencil() {
	fmt.Printf("Jacobi heat solver, %dx%d grid, %d iterations\n\n", jacobiWidth, jacobiHeight, jacobiIterations)
	fmt.Println("network   total(sim)   per-iteration   grid transfers")
	for _, name := range []string{"GigaE", "40GI", "A-HT"} {
		link, err := rcuda.NetworkByName(name)
		must(err)
		total := solveJacobi(link)
		fmt.Printf("%-8s  %-10v   %-13v  2 (once up, once down)\n",
			name, total.Round(time.Microsecond), (total / jacobiIterations).Round(time.Microsecond))
	}
	fmt.Println("\nverified: device grids match the host solver bit-for-bit tolerance 1e-4")
	fmt.Println("An iterative solver amortizes the upload over hundreds of launches, so")
	fmt.Println("even 1 Gbps Ethernet adds little — the opposite of the FFT case study.")
	// Output:
	// Jacobi heat solver, 128x128 grid, 400 iterations
	//
	// network   total(sim)   per-iteration   grid transfers
	// GigaE     53.088ms     133µs          2 (once up, once down)
	// 40GI      23.801ms     60µs           2 (once up, once down)
	// A-HT      1.104ms      3µs            2 (once up, once down)
	//
	// verified: device grids match the host solver bit-for-bit tolerance 1e-4
	// An iterative solver amortizes the upload over hundreds of launches, so
	// even 1 Gbps Ethernet adds little — the opposite of the FFT case study.
}

const (
	jacobiWidth      = 128
	jacobiHeight     = 128
	jacobiIterations = 400
)

// solveJacobi runs Example_stencil's solve through the middleware over
// link, fails unless the result matches the host solver, and returns the
// simulated time.
func solveJacobi(link *rcuda.Network) time.Duration {
	img, err := kernels.JacobiModuleImage()
	must(err)
	sess, err := rcuda.NewSimSession(link, img, nil)
	must(err)
	defer sess.Close()
	client := sess.Client

	// Initial condition: cold grid, hot top edge.
	grid := make([]float32, jacobiWidth*jacobiHeight)
	for j := 0; j < jacobiWidth; j++ {
		grid[j] = 100
	}
	bytes := uint32(4 * len(grid))
	start := sess.Clock.Now()
	src, err := client.Malloc(bytes)
	must(err)
	dst, err := client.Malloc(bytes)
	must(err)
	must(client.MemcpyToDevice(src, rcuda.Float32Bytes(grid)))
	// Seed the ping-pong buffer's boundary with a device-to-device copy —
	// 16 bytes on the wire instead of another 64 KiB upload.
	must(client.MemcpyDeviceToDevice(dst, src, bytes))
	for iter := 0; iter < jacobiIterations; iter++ {
		must(client.Launch(kernels.JacobiKernel,
			rcuda.Dim3{X: jacobiWidth / 16, Y: jacobiHeight / 16}, rcuda.Dim3{X: 16, Y: 16}, 0,
			rcuda.PackParams(uint32(src), uint32(dst), jacobiWidth, jacobiHeight)))
		src, dst = dst, src
	}
	out := make([]byte, bytes)
	must(client.MemcpyToHost(out, src))
	must(client.Free(src))
	must(client.Free(dst))
	elapsed := sess.Clock.Now() - start

	want := grid
	for iter := 0; iter < jacobiIterations; iter++ {
		want = kernels.JacobiCPU(want, jacobiWidth, jacobiHeight)
	}
	for i, got := range rcuda.BytesFloat32(out) {
		if math.Abs(float64(got-want[i])) > 1e-4 {
			log.Fatalf("%s: device result diverged from the host solver", link.Name())
		}
	}
	return elapsed
}

// Example_clusterPlan answers the paper's cluster-sizing question (left as
// future work there): given 16 nodes on 40 Gbps InfiniBand and a synthetic
// trace of 64 GPU jobs, 80% of them matrix products, how many GPUs does the
// cluster actually need?
func Example_clusterPlan() {
	planCluster(cluster.GenerateTrace(cluster.TraceConfig{
		Jobs: 64, MeanInterarrival: 30 * time.Second, MMFraction: 0.8, Seed: 1,
	}))
	// Output:
	// 16 nodes, 64 jobs (80% MM) over 40GI, mean interarrival 30s
	//
	// GPUs        makespan  mean turnaround  p95 turnaround  mean queue  mean GPU util
	// 1           31m34s    51s              2m1s            30s         58%
	// 2           30m58s    23s              1m7s            2s          30%
	// 3           30m58s    21s              1m7s            0s          20%
	// 4           30m58s    21s              1m7s            0s          15%
	// 5           30m58s    21s              1m7s            0s          12%
	// 6           30m58s    21s              1m7s            0s          10%
	// 7           30m58s    21s              1m7s            0s          8%
	// 8           30m58s    21s              1m7s            0s          7%
	// 9           30m58s    21s              1m7s            0s          7%
	// 10          30m58s    21s              1m7s            0s          6%
	// 11          30m58s    21s              1m7s            0s          5%
	// 12          30m58s    21s              1m7s            0s          5%
	// 13          30m58s    21s              1m7s            0s          5%
	// 14          30m58s    21s              1m7s            0s          4%
	// 15          30m58s    21s              1m7s            0s          4%
	// 16          30m58s    21s              1m7s            0s          4%
	// 16 (local)  30m58s    18s              56s             0s          -
	//
	// verdict: 1 of 16 nodes need a GPU (makespan 31m34s vs 30m58s fully equipped, tolerance 10%)
	// capital saved: 15 GPUs (94% of the fully equipped configuration)
	// economics:  acquisition 28.3% cheaper, energy 8.7% lower, makespan 1.9% longer
	//             (shared: 2130 Wh over 31m34s; fully equipped: 2332 Wh over 30m58s)
}

// Example_clusterPlanTrace sizes the same cluster for a site operator's own
// job mix, read from a JSON trace file (the format cluster.LoadTrace
// documents) instead of generated: five jobs, four of them matrix products,
// one every 30 s; the FFT job reaches the GPUs over Gigabit Ethernet.
func Example_clusterPlanTrace() {
	trace, err := cluster.LoadTrace(strings.NewReader(`[
	  {"id": 0, "case": "MM", "size": 8192, "arrival_ms": 0},
	  {"id": 1, "case": "MM", "size": 16384, "arrival_ms": 30000},
	  {"id": 2, "case": "FFT", "size": 4096, "arrival_ms": 60000, "network": "GigaE"},
	  {"id": 3, "case": "MM", "size": 12288, "arrival_ms": 90000},
	  {"id": 4, "case": "MM", "size": 18432, "arrival_ms": 120000}
	]`))
	must(err)
	planCluster(trace)
	// Output:
	// 16 nodes, 5 jobs (80% MM) over 40GI, mean interarrival 30s
	//
	// GPUs        makespan  mean turnaround  p95 turnaround  mean queue  mean GPU util
	// 1           3m7s      34s              1m7s            4s          66%
	// 2           3m7s      30s              1m7s            0s          33%
	// 3           3m7s      30s              1m7s            0s          22%
	// 4           3m7s      30s              1m7s            0s          17%
	// 5           3m7s      30s              1m7s            0s          13%
	// 6           3m7s      30s              1m7s            0s          11%
	// 7           3m7s      30s              1m7s            0s          9%
	// 8           3m7s      30s              1m7s            0s          8%
	// 9           3m7s      30s              1m7s            0s          7%
	// 10          3m7s      30s              1m7s            0s          7%
	// 11          3m7s      30s              1m7s            0s          6%
	// 12          3m7s      30s              1m7s            0s          6%
	// 13          3m7s      30s              1m7s            0s          5%
	// 14          3m7s      30s              1m7s            0s          5%
	// 15          3m7s      30s              1m7s            0s          4%
	// 16          3m7s      30s              1m7s            0s          4%
	// 16 (local)  2m56s     25s              56s             0s          -
	//
	// verdict: 1 of 16 nodes need a GPU (makespan 3m7s vs 2m56s fully equipped, tolerance 10%)
	// capital saved: 15 GPUs (94% of the fully equipped configuration)
	// economics:  acquisition 28.3% cheaper, energy 4.7% lower, makespan 6.4% longer
	//             (shared: 211 Wh over 3m7s; fully equipped: 221 Wh over 2m56s)
}

// planCluster simulates a 16-node cluster on 40 Gbps InfiniBand running
// trace with every possible GPU count under a global least-loaded
// scheduler, compares it with a GPU in every node, and prints the smallest
// count whose makespan lands within 10% and what that count saves, priced
// with the paper's power figures (a GPU draws ~25% of a node). Both traces
// it is given share the mix its header names.
func planCluster(trace []cluster.Job) {
	const nodes, tolerance = 16, 0.10
	link, err := rcuda.NetworkByName("40GI")
	must(err)
	cfg := cluster.Config{Nodes: nodes, Network: link}
	sweep, err := cluster.SweepGPUs(cfg, trace)
	must(err)
	local, err := cluster.Simulate(cluster.Config{Nodes: nodes}, trace)
	must(err)

	fmt.Printf("%d nodes, %d jobs (80%% MM) over %s, mean interarrival 30s\n\n", nodes, len(trace), link.Name())
	s := func(d time.Duration) time.Duration { return d.Round(time.Second) }
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "GPUs\tmakespan\tmean turnaround\tp95 turnaround\tmean queue\tmean GPU util")
	for _, r := range sweep {
		var util float64
		for _, u := range r.Utilization {
			util += u
		}
		fmt.Fprintf(w, "%d\t%v\t%v\t%v\t%v\t%.0f%%\n", r.GPUs, s(r.Makespan), s(r.MeanTurnaround),
			s(r.P95Turnaround), s(r.MeanQueueDelay), util/float64(len(r.Utilization))*100)
	}
	fmt.Fprintf(w, "%d (local)\t%v\t%v\t%v\t%v\t-\n", nodes, s(local.Makespan), s(local.MeanTurnaround),
		s(local.P95Turnaround), s(local.MeanQueueDelay))
	must(w.Flush())

	gpus, remote, localMk, err := cluster.RequiredGPUs(cfg, trace, tolerance)
	must(err)
	fmt.Printf("\nverdict: %d of %d nodes need a GPU (makespan %v vs %v fully equipped, tolerance %.0f%%)\n",
		gpus, nodes, s(remote), s(localMk), tolerance*100)
	fmt.Printf("capital saved: %d GPUs (%.0f%% of the fully equipped configuration)\n",
		nodes-gpus, float64(nodes-gpus)/nodes*100)
	cfg.GPUs = gpus
	savings, err := cluster.CompareCost(cfg, trace, cluster.DefaultCostModel())
	must(err)
	fmt.Printf("economics:  acquisition %.1f%% cheaper, energy %.1f%% lower, makespan %.1f%% longer\n",
		savings.AcquisitionPc, savings.EnergyPc, savings.SlowdownPc)
	fmt.Printf("            (shared: %.0f Wh over %v; fully equipped: %.0f Wh over %v)\n",
		savings.Shared.EnergyWh, s(savings.Shared.Makespan), savings.Local.EnergyWh, s(savings.Local.Makespan))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
