// Package fixture is the deadcode fixture's module root. Like the real
// module's façade it re-exports types by alias, which makes their methods
// public API; a literal of an alias writes the fields of the aliased type.
package fixture

import (
	"fixture/internal/dead"
	"fixture/speak"
)

// Facade is the aliased type.
type Facade = dead.Facade

// Knobs is the aliased settings type.
type Knobs = dead.Settings

// Defaults writes Rate through the alias.
var Defaults = Knobs{Rate: 1}

// Voices uses dead.Voice through an interface declared in another package.
var Voices = []speak.Speaker{dead.Voice{}}
