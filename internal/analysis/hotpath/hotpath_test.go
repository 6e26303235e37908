package hotpath_test

import (
	"testing"

	"repro/internal/analysis/atest"
	"repro/internal/analysis/hotpath"
)

// TestHotPath runs the golden packages of the hotpath rule (I/O,
// printing, sleeps, blocking channel operations); keys pins that each
// rule's //orthrus:allow key silences only that rule.
func TestHotPath(t *testing.T) {
	atest.Run(t, "testdata/hotpath", hotpath.Analyzer, "a", "clean", "tport", "keys")
}

// TestNoalloc runs the golden packages of the noalloc rule (steady-state
// heap allocation), reported by the same walk.
func TestNoalloc(t *testing.T) {
	atest.Run(t, "testdata/noalloc", hotpath.Analyzer, "a", "clean")
}
