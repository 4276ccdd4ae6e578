// Package fixture is the deadcode fixture's module root. Like the real
// module's façade it re-exports a type by alias, which makes that type's
// methods public API.
package fixture

import (
	"fixture/internal/dead"
	"fixture/speak"
)

// Facade is the aliased type.
type Facade = dead.Facade

// Voices uses dead.Voice through an interface declared in another package.
var Voices = []speak.Speaker{dead.Voice{}}
