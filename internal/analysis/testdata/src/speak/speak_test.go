package speak_test

import (
	"testing"

	"fixture/internal/dead"
)

// A test in another directory counts as a use: dead.Shared is not reported.
func TestShared(t *testing.T) { dead.Shared() }
