package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture module under testdata/src holds known-bad sources; every
// expected diagnostic is marked in place with a comment of the form
//
//	// want <analyzer> "<message substring>"
//
// on the line the diagnostic must anchor to. Each fixture test runs one
// analyzer over its fixture packages and asserts an exact match: every
// diagnostic hits a want, every want is hit.

// fixtureDir is the root of the fixture module.
func fixtureDir(t *testing.T) string {
	t.Helper()
	return filepath.Join(moduleRoot(t), "internal", "analysis", "testdata", "src")
}

var wantRE = regexp.MustCompile(`// want (\w+) "([^"]*)"`)

type want struct {
	file    string
	line    int
	substr  string
	matched bool
}

// loadWants scans the named fixture packages for this analyzer's want
// comments.
func loadWants(t *testing.T, analyzer string, pkgs ...string) []*want {
	t.Helper()
	var out []*want
	for _, pkg := range pkgs {
		dir := filepath.Join(fixtureDir(t), pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading fixture package %s: %v", pkg, err)
		}
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading fixture %s: %v", path, err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				m := wantRE.FindStringSubmatch(line)
				if m != nil && m[1] == analyzer {
					out = append(out, &want{file: path, line: i + 1, substr: m[2]})
				}
			}
		}
	}
	return out
}

// checkFixture runs one analyzer over the fixture packages and matches its
// diagnostics against the want comments.
func checkFixture(t *testing.T, a *Analyzer, pkgs ...string) {
	t.Helper()
	patterns := make([]string, len(pkgs))
	for i, pkg := range pkgs {
		patterns[i] = "./" + pkg
	}
	ds, err := Vet(fixtureDir(t), patterns, []*Analyzer{a})
	if err != nil {
		t.Fatalf("vetting fixture %v: %v", pkgs, err)
	}
	wants := loadWants(t, a.Name, pkgs...)
	for _, d := range ds {
		matched := false
		for _, w := range wants {
			if filepath.Clean(d.Pos.Filename) == w.file && d.Pos.Line == w.line &&
				strings.Contains(d.Message, w.substr) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s finding containing %q", w.file, w.line, a.Name, w.substr)
		}
	}
}

func TestSeededRandFixture(t *testing.T) {
	a := SeededRand(SeededRandConfig{
		Packages:  []string{"fixture/det"},
		WallTypes: map[string]string{"fixture/det": "Wall"},
	})
	checkFixture(t, a, "det")
}

func TestWireMsgFixture(t *testing.T) {
	a := WireMsg(WireMsgConfig{Package: "fixture/proto"})
	checkFixture(t, a, "proto")
}

func TestLockNetFixture(t *testing.T) {
	a := LockNet(LockNetConfig{
		Packages:      []string{"fixture/locked"},
		ConnPackage:   "fixture/transport",
		ConnInterface: "Conn",
		ConnMethods:   []string{"Send", "Recv"},
	})
	checkFixture(t, a, "locked")
}

// TestLockNetSchedFixture covers the scheduler-shaped violations: the
// queue lock serializes a device's dispatch, so sleeps and wire calls
// under it are flagged while the real grant shape (decide under the lock,
// close the grant channel outside it) passes clean.
func TestLockNetSchedFixture(t *testing.T) {
	a := LockNet(LockNetConfig{
		Packages:      []string{"fixture/schedq"},
		ConnPackage:   "fixture/transport",
		ConnInterface: "Conn",
		ConnMethods:   []string{"Send", "Recv"},
	})
	checkFixture(t, a, "schedq")
}

func TestErrCodeFixture(t *testing.T) {
	a := ErrCode(ErrCodeConfig{ProtocolPackage: "fixture/proto", ClientPackage: "fixture/client"})
	checkFixture(t, a, "proto", "client")
}
