package main

import (
	"bytes"
	"os"
	"testing"
)

// The committed testdata/all.golden is `rcuda-repro -all` as printed before
// the report's figures were each reduced to one run; the text must not move.
// For an intended change of the tables or figures, regenerate it with
//
//	go run ./cmd/rcuda-repro -all > cmd/rcuda-repro/testdata/all.golden
func TestAllMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-all"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatal("rcuda-repro -all differs from testdata/all.golden; regenerate it only for an intended change")
	}
}
