package report

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stale reports, naming the file and the make target that regenerates it,
// when the committed bytes differ from the generated ones.
func stale(f File, committed []byte) error {
	if bytes.Equal(committed, f.Data) {
		return nil
	}
	return fmt.Errorf("%s is stale: run `make experiments` and commit the result", f.Name)
}

// The committed EXPERIMENTS.md and the three virtual-clock BENCH files must
// be what the current code generates under rcuda-repro's default flags:
// every run is seeded, so any model, calibration or gate change that shifts
// a result forces the committed numbers to be regenerated, all four from
// one campaign. A one-byte change to any of the four must fail the check,
// naming the file and the make target. The suites run at once, but their
// tables print in one order: batching, scheduler, scale.
func TestExperimentsDocumentIsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign; skipped in -short mode")
	}
	var log strings.Builder
	files, err := defaultConfig().Generate(&log)
	if err != nil {
		t.Fatal(err)
	}
	batchAt, schedAt, scaleAt := strings.Index(log.String(), "speedup batched"),
		strings.Index(log.String(), "rt p99 fifo"), strings.Index(log.String(), "p50 wait")
	if batchAt < 0 || schedAt < batchAt || scaleAt < schedAt {
		t.Errorf("suite tables out of order (batching at %d, sched at %d, scale at %d):\n%s", batchAt, schedAt, scaleAt, log.String())
	}
	if len(files) != 4 {
		t.Fatalf("generated %d files, want EXPERIMENTS.md and three BENCH files", len(files))
	}
	for _, f := range files {
		committed, err := os.ReadFile(filepath.Join("..", "..", f.Name))
		if err != nil {
			t.Fatal(err)
		}
		if err := stale(f, committed); err != nil {
			t.Error(err)
			continue
		}
		tampered := bytes.Clone(committed)
		tampered[len(tampered)/2] ^= 1
		err = stale(f, tampered)
		if err == nil {
			t.Errorf("%s with one byte changed passes the check", f.Name)
			continue
		}
		for _, want := range []string{f.Name, "make experiments"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("tampered %s: %q does not name %q", f.Name, err, want)
			}
		}
	}
}
