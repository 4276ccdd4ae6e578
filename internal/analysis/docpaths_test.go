package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNamePathsThatExist holds the documents an operator follows to
// the tree: every repo-relative path under cmd/, examples/ or internal/
// that README.md, DESIGN.md or the verify skill names, and every `go run`
// target, must exist. A glob must match something, and a package pattern's
// trailing /... stands for its directory.
func TestDocsNamePathsThatExist(t *testing.T) {
	root := moduleRoot(t)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, p := range docPaths(line) {
				if m, _ := filepath.Glob(filepath.Join(root, p)); len(m) == 0 {
					t.Errorf("%s:%d names %s, which does not exist", doc, i+1, p)
				}
			}
		}
	}
}

var (
	treePath    = regexp.MustCompile(`\b(?:cmd|examples|internal)/[\w.*/-]*`)
	goRunTarget = regexp.MustCompile(`go run (\./[\w.*/-]*)`)
)

// docPaths returns the tree paths and go run targets line names, less a
// trailing /... and sentence punctuation.
func docPaths(line string) []string {
	paths := treePath.FindAllString(line, -1)
	for _, m := range goRunTarget.FindAllStringSubmatch(line, -1) {
		paths = append(paths, m[1])
	}
	for i, p := range paths {
		paths[i] = strings.TrimRight(strings.TrimSuffix(p, "/..."), ".,")
	}
	return paths
}
