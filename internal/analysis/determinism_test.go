package analysis_test

import (
	"testing"

	"dpc/internal/analysis"
	"dpc/internal/analysis/atest"
)

func TestDeterminism(t *testing.T) {
	atest.Run(t, "testdata/src", analysis.Determinism, "determ/kmedian")
	// The scope entry for the round skeleton, by a fixture of its own.
	atest.Run(t, "testdata/src", analysis.Determinism, "determ/protocol")
}

// The same constructs outside the solver scope must produce nothing.
func TestDeterminismOutOfScope(t *testing.T) {
	atest.Run(t, "testdata/src", analysis.Determinism, "determ/util")
}
