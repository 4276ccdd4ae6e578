// Command rcuda-bench regenerates, or checks, the committed virtual-clock
// BENCH files. Every suite runs on a simulated clock from fixed seeds, so
// its file is a pure function of the code:
//
//	batching   BENCH_batching.json   the DNN inference loop over both testbed
//	                                 links, batched and unbatched
//	sched      BENCH_sched.json      the scheduler's tenant mixes under FIFO
//	                                 and WFQ, fairness gates enforced
//	loadscale  BENCH_loadscale.json  10^4–10^5 simulated sessions through the
//	                                 broker's placer and autoscaler
//
//	rcuda-bench                  # run every suite, refresh its file
//	rcuda-bench -suite sched     # run one suite
//	rcuda-bench -check           # CI: fail if a committed file is stale
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// suite is one BENCH file: run returns its content, target is the make
// target that refreshes it.
type suite struct {
	name, file, target string
	run                func(w io.Writer) (any, error)
}

var suites = []suite{
	{"batching", "BENCH_batching.json", "bench-batch", batching},
	{"sched", "BENCH_sched.json", "bench-sched", schedSuite},
	{"loadscale", "BENCH_loadscale.json", "bench-scale", loadscale},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rcuda-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("suite", "", "run only this suite: batching, sched or loadscale")
	check := fs.Bool("check", false, "compare with the committed files instead of writing them")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	ran := false
	for _, s := range suites {
		if *only != "" && *only != s.name {
			continue
		}
		ran = true
		if err := s.emit(stdout, *check); err != nil {
			fmt.Fprintf(stderr, "rcuda-bench: %s: %v\n", s.name, err)
			return 1
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "rcuda-bench: unknown suite %q (want batching, sched or loadscale)\n", *only)
		return 2
	}
	return 0
}

// emit runs the suite and writes its file or, under check, compares the
// bytes it would write with the committed ones.
func (s suite) emit(w io.Writer, check bool) error {
	v, err := s.run(w)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if !check {
		if err := os.WriteFile(s.file, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n\n", s.file)
		return nil
	}
	committed, err := os.ReadFile(s.file)
	if err != nil {
		return fmt.Errorf("%w (run `make %s` to generate it)", err, s.target)
	}
	if !bytes.Equal(committed, blob) {
		return fmt.Errorf("%s is stale: run `make %s` and commit the result", s.file, s.target)
	}
	fmt.Fprintf(w, "%s is fresh\n\n", s.file)
	return nil
}

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }

func round4(x float64) float64 { return float64(int(x*10000+0.5)) / 10000 }
