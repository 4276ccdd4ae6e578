// Command rcuda-perf measures the real (wall-clock) performance of a live
// rCUDA daemon over TCP — the deployment-side analogue of the paper's
// methodology: per-call round-trip latencies for the control operations
// and effective throughput for bulk memory copies.
//
// Start a daemon first (cmd/rcudad), then:
//
//	rcuda-perf -server localhost:8308 -reps 250
//	rcuda-perf -server localhost:8308 -op memcpy -bytes 67108864 -reps 30
//
// The defaults mirror the paper's ping-pong configuration: 250 repetitions
// averaged for small messages, minimum-of-N for bulk transfers.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"rcuda"
	"rcuda/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run measures the operations the flags in argv ask for against the daemon
// they name and prints one table row per measurement to out, stopping at
// the first error.
func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("rcuda-perf", flag.ExitOnError)
	server := fs.String("server", "localhost:8308", "rCUDA daemon address")
	op := fs.String("op", "all", "operation to measure: sync, malloc, memcpy, launch, all")
	bytes := fs.Int("bytes", 1<<20, "payload size for memcpy measurements")
	reps := fs.Int("reps", 250, "repetitions per measurement")
	_ = fs.Parse(argv) // ExitOnError: a bad flag exits here

	mod, err := rcuda.CaseStudyModule(rcuda.MM)
	if err != nil {
		return err
	}
	img, err := mod.Binary()
	if err != nil {
		return err
	}
	client, err := rcuda.Dial(*server, img)
	if err != nil {
		return fmt.Errorf("connect to %s: %v (start cmd/rcudad first)", *server, err)
	}
	defer client.Close()
	maj, min := client.Capability()
	fmt.Fprintf(out, "connected to %s — remote device compute capability %d.%d\n\n", *server, maj, min)

	w := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "operation\treps\tmean\tmin\tmedian\tmax\tthroughput")
	defer w.Flush()

	measure := func(name string, fn func() error, payload int64) error {
		samples := make([]float64, 0, *reps)
		for i := 0; i < *reps; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			samples = append(samples, time.Since(start).Seconds())
		}
		s, err := stats.Summarize(samples)
		if err != nil {
			return err
		}
		tp := "-"
		if payload > 0 {
			tp = fmt.Sprintf("%.1f MB/s", float64(payload)/s.Min/(1<<20))
		}
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\t%v\t%s\n",
			name, s.N, dur(s.Mean), dur(s.Min), dur(s.Median), dur(s.Max), tp)
		return nil
	}

	doSync := func() error {
		return measure("cudaDeviceSynchronize", client.DeviceSynchronize, 0)
	}
	doMalloc := func() error {
		return measure("cudaMalloc+cudaFree", func() error {
			p, err := client.Malloc(4096)
			if err != nil {
				return err
			}
			return client.Free(p)
		}, 0)
	}
	doMemcpy := func() error {
		buf := make([]byte, *bytes)
		ptr, err := client.Malloc(uint32(*bytes))
		if err != nil {
			return err
		}
		if err := measure(fmt.Sprintf("cudaMemcpy H2D %dB", *bytes), func() error {
			return client.MemcpyToDevice(ptr, buf)
		}, int64(*bytes)); err != nil {
			return err
		}
		if err := measure(fmt.Sprintf("cudaMemcpy D2H %dB", *bytes), func() error {
			return client.MemcpyToHost(buf, ptr)
		}, int64(*bytes)); err != nil {
			return err
		}
		return client.Free(ptr)
	}
	doLaunch := func() error {
		const m = 32
		nbytes := uint32(4 * m * m)
		var ptrs [3]rcuda.DevicePtr
		for i := range ptrs {
			if ptrs[i], err = client.Malloc(nbytes); err != nil {
				return err
			}
		}
		for _, p := range ptrs[:2] {
			if err := client.MemcpyToDevice(p, make([]byte, nbytes)); err != nil {
				return err
			}
		}
		if err := measure("cudaLaunch sgemmNN m=32", func() error {
			return client.Launch(rcuda.SgemmKernel, rcuda.Dim3{X: 2, Y: 2}, rcuda.Dim3{X: 16, Y: 16}, 0,
				rcuda.PackParams(uint32(ptrs[0]), uint32(ptrs[1]), uint32(ptrs[2]), m))
		}, 0); err != nil {
			return err
		}
		for _, p := range ptrs {
			if err := client.Free(p); err != nil {
				return err
			}
		}
		return nil
	}

	switch *op {
	case "sync":
		return doSync()
	case "malloc":
		return doMalloc()
	case "memcpy":
		return doMemcpy()
	case "launch":
		return doLaunch()
	case "all":
		for _, do := range []func() error{doSync, doMalloc, doMemcpy, doLaunch} {
			if err := do(); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown -op %q (sync, malloc, memcpy, launch, all)", *op)
}

func dur(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second)).Round(time.Microsecond)
}
