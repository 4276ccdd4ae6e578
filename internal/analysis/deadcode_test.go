package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoDeadCode is the repo-wide gate on code nothing runs: every
// package-level func, type, var and const and every method declared in a
// non-test file under internal/ must be used by something other than its
// own package's tests — a command, an example, the benchmark, another
// package, or another package's tests. A finding means the declaration
// goes, or moves into the one _test.go file that uses it. As with
// TestVetClean, there is no suppression mechanism.
func TestNoDeadCode(t *testing.T) {
	for _, d := range deadCode(moduleRoot(t)).Run(moduleUnit(t)) {
		t.Errorf("%s", d.String())
	}
}

// TestDeadCodeFixture runs the rule over the fixture module: the reported
// declarations carry want comments, and each exemption keeps a declaration
// that would be reported without it.
func TestDeadCodeFixture(t *testing.T) {
	checkFixture(t, deadCode(fixtureDir(t)), ".", "internal/dead", "speak")
}

// deadCode is the rule as an Analyzer over the module rooted at root. It
// lives in a test file so that it adds no rcuda-vet analyzer, flag or
// Config field. A candidate is reported when all of these hold:
//
//  1. no non-test file of the loaded module references it, apart from its
//     own declaration;
//  2. no _test.go file in another directory references it — matched
//     syntactically: pkg.Name through the file's imports, and methods by
//     selector name;
//  3. it is not a method whose name belongs to an interface its receiver
//     type implements (any interface type in the loaded program, plus
//     error and fmt.Stringer);
//  4. it is not a method of a type the module-root package aliases;
//  5. no build-constrained file in its directory names it.
func deadCode(root string) *Analyzer {
	return &Analyzer{
		Name: "deadcode",
		Doc:  "declarations under internal/ used by nothing outside their own package's tests",
		Run:  func(u *Unit) []Diagnostic { return findDeadCode(u, root) },
	}
}

func findDeadCode(u *Unit, root string) []Diagnostic {
	internalDir := filepath.Join(root, "internal") + string(filepath.Separator)
	used := make(map[string]bool)
	for _, p := range u.Pkgs {
		markUses(p, used)
	}
	ifaces := interfacesByMethod(u)
	api := aliasedTypes(u, root)

	var ds []Diagnostic
	for _, p := range u.Pkgs {
		if !strings.HasPrefix(p.Dir+string(filepath.Separator), internalDir) {
			continue
		}
		names, selectors := otherTestRefs(u, p)
		constrained := constrainedNames(u, p)
		for _, c := range candidates(p) {
			name := c.obj.Name()
			if used[objKey(c.obj)] || constrained[name] {
				continue
			}
			if c.recv == nil && names[name] {
				continue
			}
			if c.recv != nil && (selectors[name] || api[objKey(c.recv.Obj())] || implementsAny(c.recv, name, ifaces)) {
				continue
			}
			ds = append(ds, u.diag("deadcode", c.obj.Pos(),
				"%s is used by nothing outside its own package's tests", c.label))
		}
	}
	SortDiagnostics(ds)
	return ds
}

// candidate is one declaration the rule judges: recv is the receiver's
// named type for a method and nil otherwise, label the name it is
// reported under (Type.Method for a method).
type candidate struct {
	obj   types.Object
	recv  *types.Named
	label string
}

// candidates lists the package-level funcs, types, vars and consts and the
// methods declared in p's non-test files.
func candidates(p *Package) []candidate {
	var out []candidate
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			for _, d := range declared(decl) {
				for _, id := range d.names {
					obj := p.Info.Defs[id]
					if obj == nil || id.Name == "_" || id.Name == "init" {
						continue
					}
					c := candidate{obj: obj, label: id.Name}
					if d.method {
						if c.recv = namedOf(obj.Type().(*types.Signature).Recv().Type()); c.recv == nil {
							continue
						}
						c.label = c.recv.Obj().Name() + "." + id.Name
					}
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// declaration is one unit that declares names: a func or method, or one
// spec of a const, var or type declaration. Its own references to the
// names it declares are not uses.
type declaration struct {
	node   ast.Node
	names  []*ast.Ident
	method bool
	skip   ast.Node // a method's receiver, whose type reference is not a use
}

// declared splits a top-level declaration into its units.
func declared(decl ast.Decl) []declaration {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		u := declaration{node: d, names: []*ast.Ident{d.Name}}
		if d.Recv != nil {
			u.method, u.skip = true, d.Recv
		}
		return []declaration{u}
	case *ast.GenDecl:
		var out []declaration
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, declaration{node: s, names: []*ast.Ident{s.Name}})
			case *ast.ValueSpec:
				out = append(out, declaration{node: s, names: s.Names})
			}
		}
		return out
	}
	return nil
}

// namedOf strips a pointer and returns the named type under it, if any.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// objKey names a package-level object or a method across packages — each
// package sees the others through export data, as objects of their own —
// and returns "" for anything else (locals, fields, universe objects).
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// markUses records every object p's non-test files reference, except a
// declaration's references to what it declares itself.
func markUses(p *Package, used map[string]bool) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			for _, d := range declared(decl) {
				self := make(map[string]bool, len(d.names))
				for _, id := range d.names {
					self[objKey(p.Info.Defs[id])] = true
				}
				ast.Inspect(d.node, func(n ast.Node) bool {
					if n == nil || n == d.skip {
						return false
					}
					if id, ok := n.(*ast.Ident); ok {
						if k := objKey(p.Info.Uses[id]); k != "" && !self[k] {
							used[k] = true
						}
					}
					return true
				})
			}
		}
	}
}

// otherTestRefs scans the _test.go files of every loaded directory but
// p's: names holds what they select from p through their imports
// (pkg.Name), selectors every selector name at all, standing in for the
// method calls a parser cannot resolve.
func otherTestRefs(u *Unit, p *Package) (names, selectors map[string]bool) {
	names, selectors = make(map[string]bool), make(map[string]bool)
	for _, q := range u.Pkgs {
		if q.Dir == p.Dir {
			continue
		}
		for _, f := range parseGlob(q.Dir, "*_test.go", nil) {
			local := ""
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) == p.ImportPath {
					local = p.Types.Name()
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					selectors[sel.Sel.Name] = true
					if x, ok := sel.X.(*ast.Ident); ok && local != "" && x.Name == local {
						names[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	return names, selectors
}

// constrainedNames collects every identifier in the non-test files of p's
// directory that the build left out: another GOARCH's fallback, a
// //go:build ignore generator.
func constrainedNames(u *Unit, p *Package) map[string]bool {
	loaded := make(map[string]bool, len(p.Files))
	for _, f := range p.Files {
		loaded[u.Fset.File(f.Pos()).Name()] = true
	}
	skip := func(path string) bool { return loaded[path] || strings.HasSuffix(path, "_test.go") }
	out := make(map[string]bool)
	for _, f := range parseGlob(p.Dir, "*.go", skip) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				out[id.Name] = true
			}
			return true
		})
	}
	return out
}

// parseGlob parses the files of dir matching pattern, minus those skip
// rejects, for their syntax only: test files and build-excluded files are
// outside what Load type-checks.
func parseGlob(dir, pattern string, skip func(string) bool) []*ast.File {
	paths, _ := filepath.Glob(filepath.Join(dir, pattern))
	fset := token.NewFileSet()
	var out []*ast.File
	for _, path := range paths {
		if skip != nil && skip(path) {
			continue
		}
		if f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution); err == nil {
			out = append(out, f)
		}
	}
	return out
}

// interfacesByMethod indexes, by method name, every interface type of the
// loaded program — declared in a loaded or an imported package, or written
// in the source — plus error and fmt.Stringer.
func interfacesByMethod(u *Unit) map[string][]*types.Interface {
	seen := make(map[*types.Interface]bool)
	out := make(map[string][]*types.Interface)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			out[name] = append(out[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	str := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)
	add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String", str)}, nil).Complete())

	visited := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range u.Pkgs {
		walk(p.Types)
		for _, tv := range p.Info.Types {
			add(tv.Type)
		}
	}
	return out
}

// implementsAny reports whether the named type, or a pointer to it,
// implements an interface with a method of this name.
func implementsAny(recv *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	for _, it := range ifaces[method] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// aliasedTypes returns the named types the module-root package re-exports
// by alias: their methods are public API.
func aliasedTypes(u *Unit, root string) map[string]bool {
	out := make(map[string]bool)
	for _, p := range u.Pkgs {
		if filepath.Clean(p.Dir) != filepath.Clean(root) {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n := namedOf(tn.Type()); n != nil {
					out[objKey(n.Obj())] = true
				}
			}
		}
	}
	return out
}
