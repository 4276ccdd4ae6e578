package analysis

import (
	"path/filepath"
	"sync"
	"testing"
)

// moduleRoot locates the repository root (two levels above this package).
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

var (
	moduleOnce sync.Once
	moduleLoad *Unit
	moduleErr  error
)

// moduleUnit loads the whole module once per test binary: the repo-wide
// gates share one `go list -export` and one type-check.
func moduleUnit(t *testing.T) *Unit {
	t.Helper()
	root := moduleRoot(t)
	moduleOnce.Do(func() { moduleLoad, moduleErr = Load(root, "./...") })
	if moduleErr != nil {
		t.Fatalf("loading module: %v", moduleErr)
	}
	return moduleLoad
}
