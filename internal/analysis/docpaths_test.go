package analysis

import (
	"encoding/json"
	"go/ast"
	"io/fs"
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

// TestDocsNameLiveIdentifiers holds README.md and DESIGN.md to the code:
// every backticked pkg.Name whose pkg is a package of the module (the root
// rcuda package included) must name a func, method, type, var or const
// that package declares at top level, its test files included — a
// trailing * reads as a prefix — or be a per_layer metric of
// BENCHMARK.json.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	root := moduleRoot(t)
	decls := moduleDecls(t, root)
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	src, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(src, &bench); err != nil {
		t.Fatal(err)
	}
	metrics := make(map[string]bool)
	for _, m := range bench.PerLayer {
		metrics[m.Name] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				for _, m := range qualifiedName.FindAllStringSubmatch(span[1], -1) {
					pkg, name := m[1], m[2]
					names, ok := decls[pkg]
					if !ok || metrics[pkg+"."+name] || declares(names, name) {
						continue
					}
					t.Errorf("%s:%d names %s.%s, which package %s does not declare", doc, i+1, pkg, name, pkg)
				}
			}
		}
	}
}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// qualifiedName is pkg.Name not preceded by a selector, a path or a
	// word, and not a file name.
	qualifiedName = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.(\w+\*?)`)
)

// declares reports whether names holds name, or, for a trailing *, a name
// with its prefix.
func declares(names map[string]bool, name string) bool {
	prefix, wild := strings.CutSuffix(name, "*")
	if !wild {
		return names[name]
	}
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

// moduleDecls maps every package name of the module to the names its files,
// test files included, declare at top level, methods included. Commands,
// all package main, are left out; so is testdata.
func moduleDecls(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	out := make(map[string]map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); path != root && (base == "testdata" || strings.HasPrefix(base, ".")) {
			return filepath.SkipDir
		}
		for _, f := range parseGlob(path, "*.go", nil) {
			pkg := strings.TrimSuffix(f.Name.Name, "_test")
			if pkg == "main" {
				continue
			}
			if out[pkg] == nil {
				out[pkg] = make(map[string]bool)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					out[pkg][d.Name.Name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							out[pkg][s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								out[pkg][n.Name] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
