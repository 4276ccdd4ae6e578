package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// inDir runs the rest of the test with dir as the working directory, where
// the driver reads and writes its BENCH files.
func inDir(t *testing.T, dir string) {
	t.Helper()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(prev) })
}

func TestCheckFailsOnTamperedFile(t *testing.T) {
	committed, err := os.ReadFile("../../BENCH_batching.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	inDir(t, dir)

	write := func(blob []byte) {
		if err := os.WriteFile(filepath.Join(dir, "BENCH_batching.json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errb bytes.Buffer
	write(committed)
	if c := run([]string{"-suite", "batching", "-check"}, &out, &errb); c != 0 {
		t.Fatalf("committed copy: exit %d, want 0\nstderr: %s", c, errb.String())
	}

	write(bytes.Replace(committed, []byte(`"verified": true`), []byte(`"verified": false`), 1))
	errb.Reset()
	if c := run([]string{"-suite", "batching", "-check"}, &out, &errb); c == 0 {
		t.Fatal("tampered file: exit 0, want non-zero")
	}
	for _, want := range []string{"BENCH_batching.json", "make bench-batch"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("tampered file: stderr %q does not name %q", errb.String(), want)
		}
	}
}

func TestUnknownSuiteIsAnError(t *testing.T) {
	var out, errb bytes.Buffer
	if c := run([]string{"-suite", "nosuch"}, &out, &errb); c != 2 {
		t.Fatalf("unknown suite: exit %d, want 2", c)
	}
	if !strings.Contains(errb.String(), "nosuch") {
		t.Errorf("stderr %q does not name the suite", errb.String())
	}
}
