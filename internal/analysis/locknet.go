package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LockNetConfig selects the packages and the blocking surface for the
// locknet analyzer.
type LockNetConfig struct {
	// Packages are the hot-path packages (paths or suffixes) in which no
	// blocking network call may run while a mutex is held.
	Packages []string
	// ConnPackage and ConnInterface name the transport connection
	// interface whose methods block on the wire.
	ConnPackage   string
	ConnInterface string
	// ConnMethods are the blocking methods of that interface. Close is
	// deliberately absent: shutdown paths may close a connection under a
	// lock, and Close never waits for the peer.
	ConnMethods []string
}

// DefaultLockNetConfig guards the broker, the rcuda client/server, and the
// device scheduler: one probe or exchange stalled on the wire must never
// stall every placement or session behind a mutex, and the scheduler's
// queue lock serializes every tenant's dispatch — a sleep or wire call
// under it would stall the whole device.
func DefaultLockNetConfig() LockNetConfig {
	return LockNetConfig{
		Packages:      []string{"internal/broker", "internal/rcuda", "internal/sched"},
		ConnPackage:   "internal/transport",
		ConnInterface: "Conn",
		ConnMethods:   []string{"Send", "Recv"},
	}
}

// locknetName tags this analyzer's diagnostics.
const locknetName = "locknet"

// blockInfo records why a function blocks: either a direct blocking call
// (what + where) or a same-analysis-set callee that blocks.
type blockInfo struct {
	what string // human description of the blocking operation
	via  string // non-empty when reached through a callee: its name
}

// LockNet returns the locknet analyzer: within the configured packages no
// transport Send/Recv, endpoint dial, time.Sleep, or call that transitively
// reaches one may execute while a sync.Mutex or sync.RWMutex is held.
func LockNet(cfg LockNetConfig) *Analyzer {
	a := &Analyzer{
		Name: "locknet",
		Doc:  "no blocking transport I/O is reachable while a mutex is held in broker/rcuda hot paths",
	}
	a.Run = func(u *Unit) []Diagnostic {
		var pkgs []*Package
		for _, pkg := range u.Pkgs {
			if matchesAny(pkg.ImportPath, cfg.Packages) {
				pkgs = append(pkgs, pkg)
			}
		}
		if len(pkgs) == 0 {
			return nil
		}
		ln := &lockNet{cfg: cfg, unit: u, blocking: make(map[string]blockInfo)}
		// Pass 1: summarize every function's direct blocking calls and
		// same-set callees, then close transitively so a lock held around
		// a helper that probes the network is still caught.
		type funcSummary struct {
			pkg     *Package
			decl    *ast.FuncDecl
			name    string
			callees map[string]bool
		}
		var summaries []*funcSummary
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if ok && fd.Body != nil {
						fs := &funcSummary{pkg: pkg, decl: fd, name: funcKey(pkg, fd), callees: make(map[string]bool)}
						ast.Inspect(fd.Body, func(n ast.Node) bool {
							// A function literal's body runs when the
							// closure runs (often another goroutine), not
							// when this function does.
							if _, isLit := n.(*ast.FuncLit); isLit {
								return false
							}
							call, ok := n.(*ast.CallExpr)
							if !ok {
								return true
							}
							if what := ln.directBlocking(pkg, call); what != "" {
								if _, seen := ln.blocking[fs.name]; !seen {
									ln.blocking[fs.name] = blockInfo{what: what}
								}
							}
							if callee := staticCallee(pkg, call); callee != nil {
								fs.callees[calleeKey(callee)] = true
							}
							return true
						})
						summaries = append(summaries, fs)
					}
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, fs := range summaries {
				if _, done := ln.blocking[fs.name]; done {
					continue
				}
				for callee := range fs.callees {
					if bi, ok := ln.blocking[callee]; ok {
						ln.blocking[fs.name] = blockInfo{what: bi.what, via: callee}
						changed = true
						break
					}
				}
			}
		}
		// Pass 2: find critical sections and report blocking calls inside.
		var ds []Diagnostic
		for _, fs := range summaries {
			ds = append(ds, ln.checkFunc(fs.pkg, fs.decl)...)
		}
		return ds
	}
	return a
}

type lockNet struct {
	cfg  LockNetConfig
	unit *Unit
	// blocking maps a function key ("pkgpath.Name" / "pkgpath.Recv.Name")
	// to why it blocks.
	blocking map[string]blockInfo
}

// funcKey names a declared function for the cross-package summary table.
func funcKey(pkg *Package, fd *ast.FuncDecl) string {
	if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		return calleeKey(fn)
	}
	return pkg.ImportPath + "." + fd.Name.Name
}

// calleeKey names a called function the same way funcKey names a declared
// one, so summaries line up across packages.
func calleeKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := types.Unalias(recv.Type())
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if nt, ok := types.Unalias(t).(*types.Named); ok {
			return fn.Pkg().Path() + "." + nt.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// directBlocking classifies one call: a blocking transport method, a dial
// function, a net dial, or a sleep. It returns a human description, or ""
// when the call does not block on the network.
func (ln *lockNet) directBlocking(pkg *Package, call *ast.CallExpr) string {
	// Method calls on the transport connection interface.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
			if pathMatches(fn.Pkg().Path(), ln.cfg.ConnPackage) {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					for _, m := range ln.cfg.ConnMethods {
						if fn.Name() == m {
							return fmt.Sprintf("%s.%s.%s", fn.Pkg().Name(), ln.cfg.ConnInterface, m)
						}
					}
				}
			}
			// time.Sleep and net.Dial* block the calling goroutine.
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Sleep" {
					return "time.Sleep"
				}
			case "net":
				if fn.Name() == "Dial" || fn.Name() == "DialTimeout" {
					return "net." + fn.Name()
				}
			}
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	}
	// A call to any value of type func(...) (transport.Conn, error) — an
	// endpoint dial hook — blocks on connection establishment.
	if tv, ok := pkg.Info.Types[call.Fun]; ok {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok && sig.Results().Len() >= 1 {
			if ln.isConnType(sig.Results().At(0).Type()) {
				return "a dial function returning " + types.TypeString(sig.Results().At(0).Type(), nil)
			}
		}
	}
	return ""
}

// isConnType reports whether t is the configured transport connection
// interface.
func (ln *lockNet) isConnType(t types.Type) bool {
	nt, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := nt.Obj()
	return obj.Pkg() != nil && pathMatches(obj.Pkg().Path(), ln.cfg.ConnPackage) && obj.Name() == ln.cfg.ConnInterface
}

// checkFunc walks one function body tracking held mutexes and reports
// blocking calls inside critical sections.
func (ln *lockNet) checkFunc(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var ds []Diagnostic
	held := make(map[string]bool)
	ln.checkBlock(pkg, fd.Body.List, held, &ds)
	return ds
}

// mutexLockCall decodes stmt as x.Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex and returns the receiver's printed form plus
// whether it acquires (true) or releases (false).
func (ln *lockNet) mutexLockCall(pkg *Package, call *ast.CallExpr) (recv string, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return "", false, false
	}
	fn, isFn := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	return types.ExprString(sel.X), acquire, true
}

// checkBlock scans a statement list in order. Lock/Unlock pairs on the
// same printed receiver open and close critical sections; nested blocks
// and control-flow branches inherit a copy of the held set, so an early
// `mu.Unlock(); return` branch does not end the outer section.
func (ln *lockNet) checkBlock(pkg *Package, stmts []ast.Stmt, held map[string]bool, ds *[]Diagnostic) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if recv, acquire, ok := ln.mutexLockCall(pkg, call); ok {
					if acquire {
						held[recv] = true
					} else {
						delete(held, recv)
					}
					continue
				}
			}
		case *ast.DeferStmt:
			// `defer mu.Unlock()` keeps the mutex held for the remainder
			// of the function; scanning simply continues with it held.
			continue
		}
		if len(held) > 0 {
			ln.reportBlockingCalls(pkg, stmt, held, ds)
		}
		// Recurse into compound statements with a copy of the held set.
		for _, body := range nestedBlocks(stmt) {
			ln.checkBlock(pkg, body, copyHeld(held), ds)
		}
	}
}

// reportBlockingCalls flags blocking calls in the statement itself, not in
// nested blocks (those are scanned by the recursion with their own held
// copies).
func (ln *lockNet) reportBlockingCalls(pkg *Package, stmt ast.Stmt, held map[string]bool, ds *[]Diagnostic) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, isBlock := n.(*ast.BlockStmt); isBlock {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		what := ln.directBlocking(pkg, call)
		via := ""
		if what == "" {
			if callee := staticCallee(pkg, call); callee != nil {
				if bi, ok := ln.blocking[calleeKey(callee)]; ok {
					what, via = bi.what, calleeKey(callee)
				}
			}
		}
		if what == "" {
			return true
		}
		for mu := range held {
			msg := fmt.Sprintf("blocking %s while %s is held", what, mu)
			if via != "" {
				msg = fmt.Sprintf("call to %s blocks on %s while %s is held", via, what, mu)
			}
			*ds = append(*ds, ln.unit.diag(locknetName, call.Pos(), "%s; release the mutex around transport I/O", msg))
		}
		return true
	})
}

// nestedBlocks returns the statement lists nested inside stmt.
func nestedBlocks(stmt ast.Stmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		out = append(out, s.List)
	case *ast.IfStmt:
		out = append(out, s.Body.List)
		if s.Else != nil {
			out = append(out, nestedBlocks(s.Else)...)
		}
	case *ast.ForStmt:
		out = append(out, s.Body.List)
	case *ast.RangeStmt:
		out = append(out, s.Body.List)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				out = append(out, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		out = append(out, nestedBlocks(s.Stmt)...)
	}
	return out
}

// copyHeld clones the held-mutex set for a nested scope.
func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

// staticCallee resolves a call's target when it is a plain function or
// method reference.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
