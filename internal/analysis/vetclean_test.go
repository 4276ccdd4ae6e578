package analysis

import "testing"

// TestVetClean is the repo-wide gate: the default analyzer suite must
// report zero findings over the whole module. A failure here means a
// determinism, wire-protocol, or lock-discipline invariant regressed; fix
// the code — there is no suppression mechanism.
func TestVetClean(t *testing.T) {
	u := moduleUnit(t)
	var ds []Diagnostic
	for _, a := range Analyzers(DefaultConfig()) {
		ds = append(ds, a.Run(u)...)
	}
	SortDiagnostics(ds)
	for _, d := range ds {
		t.Errorf("%s", d.String())
	}
}
