// Package analysis is rcuda-vet: a suite of project-specific static
// analyzers that enforce invariants no generic linter knows about —
// byte-reproducible simulation from explicit seeds, a wire protocol whose
// encoders, decoders, and size accounting must agree per operation code,
// and broker/server hot paths that must never block on the network while
// holding a mutex. The analyzers are built on the standard library's
// go/ast, go/parser, and go/types only; packages are loaded through
// `go list -json -export` and type-checked against compiler export data,
// so the repo's stdlib-only rule holds (no golang.org/x/tools).
//
// Four analyzers ship today:
//
//   - seededrand: no global math/rand functions, and no wall-clock reads
//     (time.Now / time.Since / time.Until), in the deterministic packages
//     (des, netsim, loadgen, vclock, faults, cluster, broker). The only
//     sanctioned bridge to real time is vclock's Wall clock.
//   - wiremsg: every protocol message type with an Encode also declares
//     WireSize, and every message type that is not a request has a Decode
//     function.
//   - locknet: no transport.Conn Send/Recv, endpoint dial, or sleep is
//     reachable while a sync.Mutex/RWMutex is held in internal/broker or
//     internal/rcuda.
//   - errcode: every protocol.Code* rejection constant is classified by
//     the client and mapped to a typed rcuda error.
//
// The driver (cmd/rcuda-vet) prints findings as
// "file:line:col: analyzer: message" and exits nonzero on any diagnostic.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding: a position, the analyzer that produced it,
// and the message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Run receives every loaded target
// package at once — several analyzers relate facts across packages (the
// protocol's constants against the client's handling of them) — and
// self-selects the packages it applies to.
type Analyzer struct {
	// Name tags diagnostics and selects the analyzer on the command line.
	Name string
	// Doc is the one-line description shown by rcuda-vet's usage text.
	Doc string
	// Run inspects the loaded packages and returns findings.
	Run func(u *Unit) []Diagnostic
}

// Unit is the loaded view of one rcuda-vet invocation: the target
// packages, sharing one file set.
type Unit struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// diag builds a Diagnostic at pos for analyzer name.
func (u *Unit) diag(name string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      u.Fset.Position(pos),
		Analyzer: name,
		Message:  fmt.Sprintf(format, args...),
	}
}

// SortDiagnostics orders findings by file, line, column, analyzer, then
// message, so output is deterministic across runs and map iteration.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// pathMatches reports whether an import path is selected by pattern:
// either an exact match or a suffix match on a "/" boundary, so configs
// can name packages module-relative ("internal/des") and still work when
// the module path changes.
func pathMatches(importPath, pattern string) bool {
	if importPath == pattern {
		return true
	}
	if len(importPath) > len(pattern) &&
		importPath[len(importPath)-len(pattern):] == pattern &&
		importPath[len(importPath)-len(pattern)-1] == '/' {
		return true
	}
	return false
}

// matchesAny reports whether importPath is selected by any pattern.
func matchesAny(importPath string, patterns []string) bool {
	for _, p := range patterns {
		if pathMatches(importPath, p) {
			return true
		}
	}
	return false
}
