package dead

import "testing"

func TestOnlyOwnTest(t *testing.T) { OnlyOwnTest() }

func TestDepth(t *testing.T) {
	if s := (Settings{Depth: 2}); s.Depth != 2 {
		t.Fatal(s.Depth)
	}
}
