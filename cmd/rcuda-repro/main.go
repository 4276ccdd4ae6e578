// Command rcuda-repro regenerates every table and figure of the paper from
// the reproduction stack.
//
// Usage:
//
//	rcuda-repro -all                 # everything, in paper order
//	rcuda-repro -table 4             # one table (1-6)
//	rcuda-repro -figure 5            # one figure (2-9; 7-9 are extensions)
//	rcuda-repro -experiments         # EXPERIMENTS.md content (paper vs ours)
//	rcuda-repro -svg figs            # Figures 3-9 as SVG files, plotting what -figure prints
//
// Flags -reps, -seed and -sigma control the simulated measurement campaign
// (default: the paper's 30 repetitions, seed 1, 0.4% noise).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"rcuda/internal/calib"
	"rcuda/internal/netsim"
	"rcuda/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints to out what the flags in argv ask for, stopping at the first
// error.
func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("rcuda-repro", flag.ExitOnError)
	table := fs.Int("table", 0, "print one table (1-6)")
	figure := fs.Int("figure", 0, "print one figure (2-9; 7-9 are extensions)")
	all := fs.Bool("all", false, "print every table and figure")
	experiments := fs.Bool("experiments", false, "print the EXPERIMENTS.md document")
	reps := fs.Int("reps", 30, "repetitions per measured data point")
	seed := fs.Int64("seed", 1, "noise seed")
	sigma := fs.Float64("sigma", 0.004, "relative measurement noise (0 disables)")
	mmSize := fs.Int("mm", 4096, "MM size at which Table II and Figure 8 are evaluated")
	fftBatch := fs.Int("fft", 2048, "FFT batch at which Table II and Figure 8 are evaluated")
	svgDir := fs.String("svg", "", "write every figure as SVG files into this directory")
	_ = fs.Parse(argv) // ExitOnError: a bad flag exits here

	cfg := report.Config{Reps: *reps, Seed: *seed, Sigma: *sigma}
	var err error
	emit := func(s string, e error) {
		if err == nil {
			err = e
		}
		if err == nil {
			fmt.Fprintln(out, s)
		}
	}

	if *experiments {
		emit(cfg.Experiments())
		return err
	}
	if *svgDir != "" {
		paths, err := cfg.WriteSVGs(*svgDir, *mmSize, *fftBatch)
		for _, p := range paths {
			fmt.Fprintln(out, p)
		}
		return err
	}
	if !*all && *table == 0 && *figure == 0 {
		*all = true
	}

	printTable := func(n int) {
		switch n {
		case 1:
			emit(report.TableI(), nil)
		case 2:
			emit(report.TableII(*mmSize, *fftBatch), nil)
		case 3:
			emit(report.TableIII(), nil)
		case 4:
			emit(cfg.TableIV())
		case 5:
			emit(report.TableV(), nil)
		case 6:
			emit(cfg.TableVI())
		default:
			emit("", fmt.Errorf("unknown table %d (1-6)", n))
		}
	}
	printFigure := func(n int) {
		switch n {
		case 2:
			emit(report.Figure2(64))
		case 3:
			emit(cfg.FigureLatency(netsim.GigaE()))
		case 4:
			emit(cfg.FigureLatency(netsim.IB40G()))
		case 5:
			emit(cfg.FigureSeries(calib.MM, "GigaE"))
			emit(cfg.FigureSeries(calib.FFT, "GigaE"))
		case 6:
			emit(cfg.FigureSeries(calib.MM, "40GI"))
			emit(cfg.FigureSeries(calib.FFT, "40GI"))
		case 7:
			emit(cfg.Figure7(8))
		case 8:
			emit(cfg.Figure8(*mmSize, *fftBatch, 24))
		case 9:
			emit(cfg.Figure9(8))
		default:
			emit("", fmt.Errorf("unknown figure %d (2-9; 7-9 are extensions)", n))
		}
	}

	if *table != 0 {
		printTable(*table)
	}
	if *figure != 0 {
		printFigure(*figure)
	}
	if *all {
		printTable(1)
		printFigure(2)
		printFigure(3)
		printFigure(4)
		printTable(2)
		printTable(3)
		printTable(4)
		printTable(5)
		printTable(6)
		printFigure(5)
		printFigure(6)
		printFigure(7)
		printFigure(8)
		printFigure(9)
	}
	return err
}
