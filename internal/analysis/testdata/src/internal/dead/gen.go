//go:build ignore

package dead

func regenerate() { generated() }
