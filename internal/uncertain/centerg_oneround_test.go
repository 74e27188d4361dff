package uncertain_test

import (
	"testing"

	"dpc/internal/uncertain"
)

// Table 2's last row: the single-round center-g variant works and pays the
// s*(kB+tI)*logDelta communication the formula predicts, which the 2-round
// variant avoids.
func TestCenterGOneRound(t *testing.T) {
	in, sites := plantedUncertain(t, 90, 3, 3, 3, 0.07, 21)
	one, err := uncertain.Run(in.Ground, sites, uncertain.Config{K: 3, T: 6, Variant: uncertain.OneRoundShipDists}, uncertain.CenterG)
	if err != nil {
		t.Fatal(err)
	}
	if one.Report.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", one.Report.Rounds)
	}
	if len(one.Centers) == 0 || len(one.Centers) > 3 {
		t.Fatalf("centers = %d", len(one.Centers))
	}
	two, err := uncertain.Run(in.Ground, sites, uncertain.Config{K: 3, T: 6}, uncertain.CenterG)
	if err != nil {
		t.Fatal(err)
	}
	// One round ships per-tau preclusterings: much heavier than 2 rounds.
	if float64(one.Report.UpBytes) < 2*float64(two.Report.UpBytes) {
		t.Fatalf("one-round bytes %d should dwarf two-round %d",
			one.Report.UpBytes, two.Report.UpBytes)
	}
	// Quality stays in the same ballpark.
	o1 := uncertain.EvalCenterG(in.Ground, in.Nodes, one.Centers, 6, 100, 1)
	o2 := uncertain.EvalCenterG(in.Ground, in.Nodes, two.Centers, 6, 100, 1)
	if o2 > 0 && o1 > 8*o2 {
		t.Fatalf("one-round quality %g vs two-round %g", o1, o2)
	}
	t.Logf("bytes: 1-round %d vs 2-round %d; MC objective: %g vs %g",
		one.Report.UpBytes, two.Report.UpBytes, o1, o2)
}
