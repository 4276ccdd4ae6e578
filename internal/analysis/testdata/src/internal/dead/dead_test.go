package dead

import "testing"

func TestOnlyOwnTest(t *testing.T) { OnlyOwnTest() }
