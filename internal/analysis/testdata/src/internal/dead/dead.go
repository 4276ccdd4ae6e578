// Package dead is the deadcode fixture: every declaration either carries a
// want comment or is kept by one of the rule's exemptions.
package dead

func Unused() {} // want deadcode "Unused is used by nothing outside its own package's tests"

func unused() {} // want deadcode "unused is used by nothing outside its own package's tests"

// OnlyOwnTest is called by this package's test alone.
func OnlyOwnTest() {} // want deadcode "OnlyOwnTest is used by nothing outside its own package's tests"

// Shared is called by a test in another directory.
func Shared() {}

// generated is called only from gen.go, which the build leaves out.
func generated() {}

// Voice is used by the module root as a speak.Speaker.
type Voice struct{}

// Speak is called by nothing, but Voice implements speak.Speaker with it.
func (Voice) Speak() string { return "" }

// Facade is re-exported by the module root's alias.
type Facade struct{}

// API is called by nothing, but the alias makes it public API.
func (*Facade) API() {}

// Settings is configured by the module root through the alias Knobs.
type Settings struct {
	// Rate is written by a literal of the alias.
	Rate int
	// Depth is written by this package's test alone.
	Depth int
	// Spare is written by nothing.
	Spare int // want deadcode "Settings.Spare is written by no file of the module"
}
