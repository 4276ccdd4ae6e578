package analysis

import (
	"go/types"
	"strings"
)

// WireMsgConfig selects the wire-protocol package for the wiremsg analyzer.
type WireMsgConfig struct {
	// Package is the wire-protocol package (path or suffix). It must
	// declare the Message and Request interfaces.
	Package string
}

// DefaultWireMsgConfig targets the repo's protocol package.
func DefaultWireMsgConfig() WireMsgConfig {
	return WireMsgConfig{Package: "internal/protocol"}
}

// wiremsgName tags this analyzer's diagnostics.
const wiremsgName = "wiremsg"

// WireMsg returns the wiremsg analyzer. It enforces what neither the
// compiler nor the protocol's op table can say about a message type:
//
//   - a type with an Encode method must declare WireSize;
//   - every message type that is not a request (responses, the positional
//     init pair) must have a Decode<Type> or TryDecode<Type> function.
//
// That every op code is named, decodes, and decodes to a request of its own
// code is a property of the op table, which the protocol package's
// TestOpTableTotal checks row by row.
func WireMsg(cfg WireMsgConfig) *Analyzer {
	a := &Analyzer{
		Name: "wiremsg",
		Doc:  "every protocol message type declares its wire size and every reply type has a decoder",
	}
	a.Run = func(u *Unit) []Diagnostic {
		for _, pkg := range u.Pkgs {
			if pathMatches(pkg.ImportPath, cfg.Package) {
				return wireMsgPackage(u, pkg)
			}
		}
		return nil
	}
	return a
}

func wireMsgPackage(u *Unit, pkg *Package) []Diagnostic {
	scope := pkg.Types.Scope()
	msgIface := namedInterface(scope, "Message")
	reqIface := namedInterface(scope, "Request")
	if msgIface == nil || reqIface == nil {
		return []Diagnostic{u.diag(wiremsgName, pkg.Files[0].Package,
			"package %s does not declare the Message/Request interfaces", pkg.ImportPath)}
	}

	var ds []Diagnostic
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		nt, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		ptr := types.NewPointer(nt)
		hasEncode := hasMethodNamed(ptr, "Encode")
		hasWireSize := hasMethodNamed(ptr, "WireSize")
		if hasEncode && !hasWireSize {
			ds = append(ds, u.diag(wiremsgName, tn.Pos(),
				"%s has an Encode method but no WireSize; the Table I byte accounting requires both", name))
			continue
		}
		if types.Implements(ptr, msgIface) && !types.Implements(ptr, reqIface) && !hasDecoderFunc(scope, name) {
			ds = append(ds, u.diag(wiremsgName, tn.Pos(),
				"message %s has an encoder but no Decode%s/TryDecode%s function; a peer cannot parse it", name, name, name))
		}
	}
	return ds
}

// namedInterface resolves a package-scope interface type by name.
func namedInterface(scope *types.Scope, name string) *types.Interface {
	tn, ok := scope.Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// hasMethodNamed reports whether the type's method set contains a method
// with the given name.
func hasMethodNamed(t types.Type, name string) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// hasDecoderFunc reports whether the package declares a decoder for the
// named message type: a function whose name begins Decode<Type> or
// TryDecode<Type>.
func hasDecoderFunc(scope *types.Scope, typeName string) bool {
	for _, name := range scope.Names() {
		if _, ok := scope.Lookup(name).(*types.Func); !ok {
			continue
		}
		if strings.HasPrefix(name, "Decode"+typeName) || strings.HasPrefix(name, "TryDecode"+typeName) {
			return true
		}
	}
	return false
}
