package stats

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
)

// A counter set is declared once, as a generic struct whose fields all have
// the type parameter's type (DESIGN.md §13), and instantiated twice: with
// atomic.Int64 as the live store its owner adds to, and with int64 as the
// comparable snapshot its Stats method returns. Load copies the one into
// the other and Pairs prints the snapshot, so neither names a field and a
// counter added to the declaration is copied and printed with no other edit.

// Load returns a snapshot of live, a counter set of atomic.Int64 fields, as
// S, the same set's int64 instantiation: field i of the result is field i of
// live, each loaded atomically. It does not allocate. Load panics when the
// two structs have different field counts.
func Load[S, L any](live *L) S {
	var snap S
	dst, src := reflect.ValueOf(&snap).Elem(), reflect.ValueOf(live).Elem()
	if dst.NumField() != src.NumField() {
		panic(fmt.Sprintf("stats: Load of %v into %v", src.Type(), dst.Type()))
	}
	for i := range dst.NumField() {
		dst.Field(i).SetInt(src.Field(i).Addr().Interface().(*atomic.Int64).Load())
	}
	return snap
}

// Pairs formats snap, a struct of integer fields such as a counter set's
// snapshot, as space-separated Name=value pairs in declaration order. It is
// the one way a command prints a counter set, so every counter reaches the
// operator.
func Pairs(snap any) string {
	v := reflect.ValueOf(snap)
	var b strings.Builder
	for i := range v.NumField() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", v.Type().Field(i).Name, v.Field(i).Int())
	}
	return b.String()
}
