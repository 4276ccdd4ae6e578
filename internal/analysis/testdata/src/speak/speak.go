// Package speak declares the interface the deadcode fixture's Voice
// satisfies. It sits outside internal/, so the rule does not judge its own
// declarations.
package speak

// Speaker is implemented by dead.Voice.
type Speaker interface{ Speak() string }
