package report

import (
	"os"
	"testing"
)

// The committed EXPERIMENTS.md must match what the current code generates
// under the default configuration — the document regenerates
// deterministically (fixed seed), so any model or calibration change that
// shifts results forces the documented numbers to be refreshed with
//
//	go run ./cmd/rcuda-repro -experiments > EXPERIMENTS.md
func TestExperimentsDocumentIsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign; skipped in -short mode")
	}
	committed, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("read committed document: %v", err)
	}
	generated, err := defaultConfig().Experiments()
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != generated+"\n" && string(committed) != generated {
		t.Fatal("EXPERIMENTS.md is stale; regenerate with `go run ./cmd/rcuda-repro -experiments > EXPERIMENTS.md`")
	}
}
