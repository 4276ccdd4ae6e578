package analysis

import (
	"encoding/json"
	"go/ast"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNamePathsThatExist holds the documents an operator follows, and
// the make targets and CI steps that run the tree, to the tree: every
// repo-relative path under cmd/, examples/ or internal/ that README.md,
// DESIGN.md, EXPERIMENTS.md, the verify skill, the Makefile or a CI
// workflow names, and every `go run` (or `$(GO) run`) target, must exist.
// A glob must match something, and a package pattern's trailing /...
// stands for its directory.
func TestDocsNamePathsThatExist(t *testing.T) {
	root := moduleRoot(t)
	workflows, err := filepath.Glob(filepath.Join(root, ".github", "workflows", "*.yml"))
	if err != nil || len(workflows) == 0 {
		t.Fatalf("no CI workflow under .github/workflows (%v)", err)
	}
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "Makefile"}
	for _, w := range workflows {
		rel, _ := filepath.Rel(root, w)
		docs = append(docs, rel)
	}
	for _, doc := range docs {
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
	goRunTarget = regexp.MustCompile(`(?:\bgo|\$\(GO\)) run (\./[\w.*/-]*)`)
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

// TestDocsNameLiveIdentifiers holds README.md, DESIGN.md and EXPERIMENTS.md
// to the code: every backticked pkg.Name whose pkg is a package of the
// module (the root rcuda package included) must name a func, method, type,
// var or const that package declares at top level, its test files included
// — a trailing * reads as a prefix — or be a per_layer metric of
// BENCHMARK.json. A backticked Type.member, pkg.Type.member included, whose
// Type a non-test file of the module declares (of that pkg, when named)
// must name a field or method of it, promoted ones included; and an
// unqualified Type.member whose Type the module does not declare must not
// name a field or method of some other type: that Type was renamed or
// removed.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	root := moduleRoot(t)
	decls := moduleDecls(t, root)
	typeNames, members := moduleTypes(moduleUnit(t))
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
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
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
				for _, m := range selectorName.FindAllStringSubmatch(span[1], -1) {
					pkg, typ, member := m[1], m[2], m[3]
					switch checked, ok := hasMember(typeNames[typ], pkg, member); {
					case checked && !ok:
						t.Errorf("%s:%d names %s.%s, which is no field or method of %s", doc, i+1, typ, member, typ)
					case !checked && pkg == "" && members[member]:
						t.Errorf("%s:%d names %s.%s, but the module declares no type %s", doc, i+1, typ, member, typ)
					}
				}
			}
		}
	}
}

// moduleTypes maps every type name the module's non-test files declare at
// package level to the declarations of that name, and returns the names of
// the fields and methods those types declare.
func moduleTypes(u *Unit) (map[string][]*types.TypeName, map[string]bool) {
	out := make(map[string][]*types.TypeName)
	members := make(map[string]bool)
	for _, p := range u.Pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			out[name] = append(out[name], tn)
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					members[st.Field(i).Name()] = true
				}
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := range ms.Len() {
				members[ms.At(i).Obj().Name()] = true
			}
		}
	}
	return out, members
}

// hasMember reports whether one of decls, of package pkg when pkg is not
// empty, has a field or method named member; checked is false when none
// of decls is of pkg.
func hasMember(decls []*types.TypeName, pkg, member string) (checked, ok bool) {
	for _, tn := range decls {
		if pkg != "" && tn.Pkg().Name() != pkg {
			continue
		}
		checked = true
		if obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), member); obj != nil {
			return true, true
		}
	}
	return checked, false
}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// qualifiedName is pkg.Name not preceded by a selector, a path or a
	// word, and not a file name.
	qualifiedName = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.(\w+\*?)`)
	// selectorName is Type.member, or pkg.Type.member, not preceded by a
	// selector, a path or a word.
	selectorName = regexp.MustCompile(`(?:^|[^\w./])(?:([a-z]\w*)\.)?([A-Z]\w*)\.(\w+)`)
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

// TestDesignSectionsNameTheirTests holds DESIGN.md's sections to the tests
// that hold their invariants: the last non-blank line of every ## section
// is a Held by: line with at least one backticked name, and every
// backticked Test, Benchmark, Example or Fuzz function that DESIGN.md,
// README.md or EXPERIMENTS.md names is declared in a _test.go file of the
// module.
func TestDesignSectionsNameTheirTests(t *testing.T) {
	root := moduleRoot(t)
	design := readDoc(t, root, "DESIGN.md")
	sections := 0
	for _, sec := range strings.Split("\n"+design, "\n## ")[1:] {
		sections++
		lines := strings.Split(strings.TrimRight(sec, "\n \t"), "\n")
		if last := lines[len(lines)-1]; !heldBy.MatchString(last) {
			t.Errorf("DESIGN.md section %q ends in %q, not a Held by: line naming a test", lines[0], last)
		}
	}
	if sections == 0 {
		t.Fatal("DESIGN.md has no ## sections")
	}
	tests := testFuncs(t, root)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		for i, line := range strings.Split(readDoc(t, root, doc), "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				if testName.MatchString(span[1]) && !tests[span[1]] {
					t.Errorf("%s:%d names %s, which no _test.go file declares", doc, i+1, span[1])
				}
			}
		}
	}
}

var (
	heldBy   = regexp.MustCompile("^Held by: .*`[^`]+`")
	testName = regexp.MustCompile(`^(?:Test|Benchmark|Example|Fuzz)\w+$`)
)

// testFuncs returns the names of the functions the module's _test.go files
// declare, testdata left out.
func testFuncs(t *testing.T, root string) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); path != root && (base == "testdata" || strings.HasPrefix(base, ".")) {
			return filepath.SkipDir
		}
		for _, f := range parseGlob(path, "*_test.go", nil) {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					out[fd.Name.Name] = true
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

// TestDocsSectionRefsResolve holds every section reference to DESIGN.md's
// numbering: each § followed by a number in the module's Go files (the
// generator of EXPERIMENTS.md among them), README.md, DESIGN.md and the
// verify skill names a "## N." heading, and a quoted title right after it
// names a ### heading inside that section. CHANGES.md and ROADMAP.md are
// history: their references describe the file as it was then.
func TestDocsSectionRefsResolve(t *testing.T) {
	root := moduleRoot(t)
	titles := make(map[string]map[string]bool)
	cur := ""
	for _, line := range strings.Split(readDoc(t, root, "DESIGN.md"), "\n") {
		if m := sectionHeading.FindStringSubmatch(line); m != nil {
			cur = m[1]
			titles[cur] = make(map[string]bool)
		} else if title, ok := strings.CutPrefix(line, "### "); ok && cur != "" {
			titles[cur][strings.TrimSpace(title)] = true
		}
	}
	docs := []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := d.Name(); path != root && (base == "testdata" || strings.HasPrefix(base, ".")) {
				return filepath.SkipDir
			}
		} else if strings.HasSuffix(path, ".go") {
			docs = append(docs, path[len(root)+1:])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		src := readDoc(t, root, doc)
		for _, m := range sectionRef.FindAllStringSubmatchIndex(src, -1) {
			line := 1 + strings.Count(src[:m[0]], "\n")
			n := src[m[2]:m[3]]
			sec, ok := titles[n]
			if !ok {
				t.Errorf("%s:%d refers to DESIGN.md §%s, which has no \"## %s.\" heading", doc, line, n, n)
				continue
			}
			if m[4] >= 0 {
				if title := strings.Join(strings.Fields(src[m[4]:m[5]]), " "); !sec[title] {
					t.Errorf("%s:%d quotes %q after §%s, which is not a ### heading of that section", doc, line, title, n)
				}
			}
		}
	}
}

var (
	sectionHeading = regexp.MustCompile(`^## (\d+)\. `)
	sectionRef     = regexp.MustCompile(`§(\d+)(?:\s+"([^"]+)")?`)
)

// readDoc returns the file at the repo-relative path.
func readDoc(t *testing.T, root, rel string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}
