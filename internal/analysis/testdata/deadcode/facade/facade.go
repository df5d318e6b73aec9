// Package facade exercises deadcode's scope. TestDeadcodeTracksModuleRoot
// loads it as a module's root package over the corpus library, loaded as
// that module's internal/lib: outside internal/, yet tracked, because it is
// the public API over the library code deadcode checks.
package facade

// Used has a production caller in package user.
func Used() int { return 1 }

// Alias re-exports a type nothing uses through it.
type Alias = int // want "deadcode: Alias has no use"

// Unused is a facade entry point nothing calls.
func Unused() int { return 2 } // want "deadcode: Unused has no use"
