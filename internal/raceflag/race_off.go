//go:build !race

// Package raceflag tells tests whether the binary was built with the race
// detector. Under it sync.Pool deliberately drops a fraction of Puts and
// Gets to shake out races, so steady-state recycling and allocation counts
// cannot be asserted exactly; tests holding such gates skip them when
// Enabled is true.
package raceflag

// Enabled reports whether the race detector is compiled in.
const Enabled = false
