package analysis_test

import (
	"testing"

	"dpc/internal/analysis"
	"dpc/internal/analysis/atest"
)

func TestOracleGuard(t *testing.T) {
	atest.Run(t, "testdata/src", analysis.OracleGuard, "og/kmedian")
}

// Pool infrastructure outside the solver scope legitimately names the
// concrete cache types.
func TestOracleGuardOutOfScope(t *testing.T) {
	atest.Run(t, "testdata/src", analysis.OracleGuard, "og/pool")
}
