// Benchmarks regenerating every table and figure of the paper, one bench
// per artifact, plus ablations for the design choices DESIGN.md calls out.
// Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports a domain metric alongside time/op where one is
// meaningful (e.g. the worst cross-validation error for Table IV).
package rcuda

import (
	"net"
	"testing"
	"time"

	"rcuda/internal/calib"
	"rcuda/internal/cluster"
	"rcuda/internal/contention"
	"rcuda/internal/cudart"
	"rcuda/internal/gpu"
	"rcuda/internal/kernels"
	"rcuda/internal/netsim"
	"rcuda/internal/perfmodel"
	"rcuda/internal/protocol"
	mw "rcuda/internal/rcuda"
	"rcuda/internal/report"
	"rcuda/internal/transport"
	"rcuda/internal/vclock"
	"rcuda/internal/workload"
)

// benchConfig keeps the simulated campaigns fast and deterministic.
func benchConfig() report.Config { return report.Config{Reps: 3, Seed: 1, Sigma: 0.004} }

// BenchmarkTableI measures regenerating the message-breakdown table from
// the protocol encoders (Table I).
func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := report.TableI(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure2 runs the traced functional remote matrix multiplication
// behind the sequence diagram of Figure 2 (full middleware, real data).
func BenchmarkFigure2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := report.Figure2(64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 reproduces the GigaE ping-pong characterization.
func BenchmarkFigure3(b *testing.B) {
	benchFigureLatency(b, netsim.GigaE())
}

// BenchmarkFigure4 reproduces the 40GI ping-pong characterization.
func BenchmarkFigure4(b *testing.B) {
	benchFigureLatency(b, netsim.IB40G())
}

func benchFigureLatency(b *testing.B, link *netsim.Link) {
	b.Helper()
	b.ReportAllocs()
	cfg := benchConfig()
	var bw float64
	for i := 0; i < b.N; i++ {
		out, err := cfg.FigureLatency(link)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
		pp := &netsim.PingPong{Link: link}
		fit, err := netsim.FitLarge(pp.MeasureLarge([]int64{64 << 20, 256 << 20, 1 << 30}, 3))
		if err != nil {
			b.Fatal(err)
		}
		bw = netsim.EffectiveBandwidth(fit)
	}
	b.ReportMetric(bw, "MB/s")
}

// BenchmarkTableII evaluates the per-call transfer estimates at the paper's
// reference sizes.
func BenchmarkTableII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := report.TableII(4096, 2048); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableIII evaluates the testbed per-copy transfer grid.
func BenchmarkTableIII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := report.TableIII(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableIV runs the full simulated measurement campaign on both
// testbed networks and cross-validates both estimation models. The
// reported metric is the worst absolute MM error (the paper bounds it at
// 2.2%).
func BenchmarkTableIV(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	ge, ib := netsim.GigaE(), netsim.IB40G()
	var worstMM float64
	for i := 0; i < b.N; i++ {
		geMeas, err := workload.MeasureSeries(calib.MM, workload.Remote,
			workload.Options{Link: ge, Noise: netsim.NewNoise(cfg.Seed, cfg.Sigma)}, cfg.Reps)
		if err != nil {
			b.Fatal(err)
		}
		ibMeas, err := workload.MeasureSeries(calib.MM, workload.Remote,
			workload.Options{Link: ib, Noise: netsim.NewNoise(cfg.Seed+1, cfg.Sigma)}, cfg.Reps)
		if err != nil {
			b.Fatal(err)
		}
		model, err := perfmodel.Build(calib.MM, ge, geMeas)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := perfmodel.CrossValidate(model, ib, ibMeas)
		if err != nil {
			b.Fatal(err)
		}
		worstMM = 0
		for _, r := range rows {
			if e := r.RelativeErrorPc; e > worstMM || -e > worstMM {
				if e < 0 {
					e = -e
				}
				worstMM = e
			}
		}
	}
	b.ReportMetric(worstMM, "worst-MM-err-%")
}

// BenchmarkTableV evaluates the target-network per-copy transfer grid.
func BenchmarkTableV(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := report.TableV(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableVI produces the full measured-vs-estimated grid: CPU and
// local-GPU baselines, testbed measurements, and 2 models × 5 networks of
// projections for both case studies.
func BenchmarkTableVI(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.TableVIData(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 renders the Table VI series under the GigaE-based model
// (both case studies), the data behind Figure 5.
func BenchmarkFigure5(b *testing.B) {
	benchFigureSeries(b, "GigaE")
}

// BenchmarkFigure6 renders the series under the 40GI-based model (Figure 6).
func BenchmarkFigure6(b *testing.B) {
	benchFigureSeries(b, "40GI")
}

func benchFigureSeries(b *testing.B, model string) {
	b.Helper()
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		for _, cs := range []calib.CaseStudy{calib.MM, calib.FFT} {
			if _, err := cfg.FigureSeries(cs, model); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationNagle compares small-message round trips with Nagle's
// algorithm disabled (the paper's configuration) and enabled, quantifying
// why the middleware explicitly controls frame emission.
func BenchmarkAblationNagle(b *testing.B) {
	for _, nagle := range []bool{false, true} {
		name := "disabled"
		if nagle {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			pp := &netsim.PingPong{Link: netsim.GigaE(), Nagle: nagle}
			var total time.Duration
			for i := 0; i < b.N; i++ {
				total += pp.RoundTrip(8)
			}
			b.ReportMetric(float64(total.Microseconds())/float64(b.N), "sim-us/rtt")
		})
	}
}

// BenchmarkAblationPreinit compares a cold CUDA context (local application
// start) against the rCUDA daemon's pre-initialized context — the reason a
// remote GPU over 40GI beats the local GPU at m=4096.
func BenchmarkAblationPreinit(b *testing.B) {
	mod, err := kernels.ModuleFor(calib.MM)
	if err != nil {
		b.Fatal(err)
	}
	for _, pre := range []bool{false, true} {
		name := "cold"
		if pre {
			name = "preinitialized"
		}
		b.Run(name, func(b *testing.B) {
			var simTime time.Duration
			for i := 0; i < b.N; i++ {
				clk := vclock.NewSim()
				dev := gpu.New(gpu.Config{Clock: clk})
				var opts []cudart.LocalOption
				if pre {
					opts = append(opts, cudart.Preinitialized())
				}
				rt, err := cudart.OpenLocal(dev, mod, opts...)
				if err != nil {
					b.Fatal(err)
				}
				_ = rt.Close()
				simTime += clk.Now()
			}
			b.ReportMetric(float64(simTime.Milliseconds())/float64(b.N), "sim-ms/open")
		})
	}
}

// BenchmarkAblationChunking compares the paper's single-message synchronous
// memcpy against splitting the payload into 1 MiB chunks (one message
// each): chunking multiplies per-message overhead without helping a
// synchronous protocol, motivating the single-frame design.
func BenchmarkAblationChunking(b *testing.B) {
	link := netsim.GigaE()
	const payload = 64 << 20 // one MM 4096 matrix
	for _, chunked := range []bool{false, true} {
		name := "single-message"
		if chunked {
			name = "chunked-1MiB"
		}
		b.Run(name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				if chunked {
					const chunk = 1 << 20
					for off := 0; off < payload; off += chunk {
						total += link.WireTime(chunk+20) + link.WireTime(4)
					}
				} else {
					total += link.WireTime(payload+20) + link.WireTime(4)
				}
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "sim-ms/copy")
		})
	}
}

// BenchmarkMiddlewareRoundTrip measures the real (wall-clock) cost of one
// remote cudaMalloc round trip through the full client/server stack over an
// in-process pipe with a zero-latency clock — the middleware's own
// processing overhead, separate from any network model.
func BenchmarkMiddlewareRoundTrip(b *testing.B) {
	sess, err := NewSimSession(netsim.AHT(), benchModule(b, calib.MM), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, err := sess.Client.Malloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Client.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

// benchModule returns the wire image of a case study's GPU module.
func benchModule(b *testing.B, cs calib.CaseStudy) []byte {
	mod, err := kernels.ModuleFor(cs)
	if err != nil {
		b.Fatal(err)
	}
	img, err := mod.Binary()
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkRemoteGEMMFunctional drives a complete functional remote matrix
// multiplication (m=128) through the middleware per iteration.
func BenchmarkRemoteGEMMFunctional(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := workload.Run(calib.MM, 128, workload.Remote, workload.Options{
			Link:       netsim.IB40G(),
			Functional: true,
			Seed:       int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Verified {
			b.Fatal("unverified run")
		}
	}
	b.SetBytes(3 * 4 * 128 * 128)
}

// BenchmarkProtocolEncodeDecode measures the wire codec on a bulk memcpy.
func BenchmarkProtocolEncodeDecode(b *testing.B) {
	data := make([]byte, 1<<20)
	req := &protocol.MemcpyToDeviceRequest{Dst: 0x100, Data: data}
	b.ReportAllocs()
	b.SetBytes(int64(req.WireSize()))
	for i := 0; i < b.N; i++ {
		enc := req.Encode(make([]byte, 0, req.WireSize()))
		if _, err := protocol.DecodeRequest(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAsyncOverlap quantifies the asynchronous extension (the
// paper's future work): a chunked remote FFT run serialized vs
// double-buffered on two streams. The metric is the modeled makespan.
func BenchmarkAblationAsyncOverlap(b *testing.B) {
	for _, overlapped := range []bool{false, true} {
		name := "synchronous"
		if overlapped {
			name = "double-buffered"
		}
		b.Run(name, func(b *testing.B) {
			var mk time.Duration
			for i := 0; i < b.N; i++ {
				var err error
				mk, err = chunkedRemoteFFT(overlapped)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(mk.Microseconds()), "sim-us/makespan")
		})
	}
}

// chunkedRemoteFFT runs 8 chunks of 256 transforms through the middleware
// over simulated 40GI, optionally double-buffered.
func chunkedRemoteFFT(overlapped bool) (time.Duration, error) {
	mod, err := kernels.ModuleFor(calib.FFT)
	if err != nil {
		return 0, err
	}
	img, err := mod.Binary()
	if err != nil {
		return 0, err
	}
	sess, err := NewSimSession(netsim.IB40G(), img, nil)
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	client, clk := sess.Client, sess.Clock

	const chunkBatch = 256
	chunkBytes := uint32(chunkBatch * 4096)
	bufs := make([]cudart.DevicePtr, 2)
	for i := range bufs {
		if bufs[i], err = client.Malloc(chunkBytes); err != nil {
			return 0, err
		}
	}
	data := make([]byte, chunkBytes)
	start := clk.Now()
	if overlapped {
		var streams [2]cudart.Stream
		for i := range streams {
			if streams[i], err = client.StreamCreate(); err != nil {
				return 0, err
			}
		}
		for c := 0; c < 8; c++ {
			buf, s := bufs[c%2], streams[c%2]
			if err := client.MemcpyToDeviceAsync(buf, data, s); err != nil {
				return 0, err
			}
			if err := client.LaunchAsync(kernels.FFTKernel,
				cudart.Dim3{X: chunkBatch}, cudart.Dim3{X: 64}, 0,
				gpu.PackParams(uint32(buf), chunkBatch, 0), s); err != nil {
				return 0, err
			}
		}
		if err := client.DeviceSynchronize(); err != nil {
			return 0, err
		}
	} else {
		for c := 0; c < 8; c++ {
			buf := bufs[c%2]
			if err := client.MemcpyToDevice(buf, data); err != nil {
				return 0, err
			}
			if err := client.Launch(kernels.FFTKernel,
				cudart.Dim3{X: chunkBatch}, cudart.Dim3{X: 64}, 0,
				gpu.PackParams(uint32(buf), chunkBatch, 0)); err != nil {
				return 0, err
			}
		}
	}
	return clk.Now() - start, nil
}

// BenchmarkMemcpyPipeline measures the pipelined chunked-memcpy data path
// against the paper's single-frame protocol. The sim sub-benchmarks report
// the modeled time of one 64 MiB host-to-device copy: on 40GI the chunked
// path approaches max(network, PCIe) where the legacy path pays their sum;
// on GigaE the per-message excess makes chunking a net loss, which is why
// it is opt-in. The tcp sub-benchmarks run the same copy in both directions
// over a real loopback socket and report allocations — the pooled zero-copy
// framing is what keeps allocs/op flat regardless of payload size.
func BenchmarkMemcpyPipeline(b *testing.B) {
	img := benchModule(b, calib.MM)
	const size = 64 << 20

	for _, link := range []*netsim.Link{netsim.GigaE(), netsim.IB40G()} {
		for _, mode := range []string{"legacy", "chunked", "chunked+retry"} {
			mode := mode
			b.Run("sim/"+link.Name()+"/"+mode, func(b *testing.B) {
				clk := vclock.NewSim()
				daemon := mw.NewSimDaemon(mw.NewServer(gpu.New(gpu.Config{Clock: clk})), link, clk, nil)
				var opts []mw.ClientOption
				if mode != "legacy" {
					opts = append(opts, mw.WithChunkedTransfers(1, protocol.DefaultChunkSize))
				}
				if mode == "chunked+retry" {
					// Measures the retry engine's bookkeeping on a
					// fault-free path; the dialer is never invoked.
					opts = append(opts, mw.WithRetry(10*time.Second), mw.WithReconnect(daemon.Dial))
				}
				client, err := daemon.Open(img, opts...)
				if err != nil {
					b.Fatal(err)
				}
				defer client.Close()
				ptr, err := client.Malloc(size)
				if err != nil {
					b.Fatal(err)
				}
				data := make([]byte, size)
				b.SetBytes(size)
				b.ResetTimer()
				var sim time.Duration
				for i := 0; i < b.N; i++ {
					start := clk.Now()
					if err := client.MemcpyToDevice(ptr, data); err != nil {
						b.Fatal(err)
					}
					sim += clk.Now() - start
				}
				b.ReportMetric(float64(sim.Microseconds())/float64(b.N)/1000, "sim-ms/copy")
			})
		}
	}

	// 16 MiB keeps payload+framing within the buffer pool's largest class;
	// beyond it the frames fall back to the GC as designed.
	const tcpSize = 16 << 20
	for _, mode := range []string{"legacy", "chunked", "chunked+retry"} {
		mode := mode
		b.Run("tcp/"+mode, func(b *testing.B) {
			dev := gpu.New(gpu.Config{Clock: vclock.NewSim()})
			srv := mw.NewServer(dev)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			serveDone := make(chan error, 1)
			go func() { serveDone <- srv.Serve(ln) }()
			conn, err := transport.DialTCP(ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			var opts []mw.ClientOption
			if mode != "legacy" {
				opts = append(opts, mw.WithChunkedTransfers(1, protocol.DefaultChunkSize))
			}
			if mode == "chunked+retry" {
				addr := ln.Addr().String()
				opts = append(opts,
					mw.WithRetry(10*time.Second),
					mw.WithReconnect(func() (transport.Conn, error) { return transport.DialTCP(addr) }))
			}
			client, err := mw.Open(conn, img, opts...)
			if err != nil {
				b.Fatal(err)
			}
			ptr, err := client.Malloc(tcpSize)
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, tcpSize)
			b.SetBytes(2 * tcpSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.MemcpyToDevice(ptr, data); err != nil {
					b.Fatal(err)
				}
				if err := client.MemcpyToHost(data, ptr); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_ = client.Close()
			_ = srv.Close()
			<-serveDone
		})
	}
}

// BenchmarkClusterSweep runs the GPU-count sizing study (the paper's
// future-work question) over a 64-job trace on a 16-node cluster. The
// metric is the number of GPUs the cluster actually needs.
func BenchmarkClusterSweep(b *testing.B) {
	link := netsim.IB40G()
	trace := cluster.GenerateTrace(cluster.TraceConfig{
		Jobs: 64, MeanInterarrival: 30 * time.Second, MMFraction: 0.8, Seed: 1,
	})
	cfg := cluster.Config{Nodes: 16, Network: link}
	b.ReportAllocs()
	var need int
	for i := 0; i < b.N; i++ {
		var err error
		need, _, _, err = cluster.RequiredGPUs(cfg, trace, 0.10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(need), "GPUs-required")
}

// BenchmarkContentionSweep runs the event-level multi-client contention
// study behind Figure 9: 1-8 clients sharing one GPU server over 40GI.
// The metric is the mean per-client slowdown at 8 clients.
func BenchmarkContentionSweep(b *testing.B) {
	b.ReportAllocs()
	var slow8 float64
	for i := 0; i < b.N; i++ {
		results, err := contention.Sweep(contention.Params{
			CS: calib.MM, Size: 8192, Link: netsim.IB40G(),
		}, 8)
		if err != nil {
			b.Fatal(err)
		}
		slow8 = contention.Slowdown(results)[7]
	}
	b.ReportMetric(slow8, "slowdown@8")
}
