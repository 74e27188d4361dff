package protocol

import (
	"fmt"
	"math"
	"slices"

	"dpc/internal/metric"
)

// Union is a coordinator's check on the preclusters its sites ship, so that
// no Reducer solve meets a mismatched dimension, a non-finite distance or an
// overflowing cost sum. Dim fixes every point's dimension (zero takes the
// first point's); Squared marks a means objective.
type Union struct {
	Dim        int
	Squared    bool
	lo, hi     []float64
	total, ell float64 // total weight, largest collapse cost
}

// Admit folds one site's points, weights and collapse costs (ell is nil
// for plain points) into the union, or leaves it unchanged and rejects them:
// a point with no coordinates or another dimension, a coordinate that is not
// finite, a weight or collapse cost that is NaN, infinite or negative, or a
// cost bound that overflows. The bound is max(total weight, 1) times the
// longest connection: the bounding box's diagonal plus two collapse costs,
// or for means twice its square plus four (uncertain.Collapsed's form).
func (u *Union) Admit(pts []metric.Point, w, ell []float64) error {
	dim, lo, hi, total, maxEll := u.Dim, slices.Clone(u.lo), slices.Clone(u.hi), u.total, u.ell
	for i, p := range pts {
		if len(p) == 0 {
			return fmt.Errorf("point %d has no coordinates", i)
		}
		if dim == 0 {
			dim = len(p)
		}
		if len(p) != dim {
			return fmt.Errorf("point %d has dimension %d, want %d", i, len(p), dim)
		}
		if lo == nil {
			lo, hi = slices.Clone(p), slices.Clone(p)
		}
		for d, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("point %d has coordinate %g", i, x)
			}
			lo[d], hi[d] = min(lo[d], x), max(hi[d], x)
		}
		if !(w[i] >= 0) || math.IsInf(w[i], 1) {
			return fmt.Errorf("point %d has weight %g", i, w[i])
		}
		total += w[i]
		if ell != nil {
			if !(ell[i] >= 0) || math.IsInf(ell[i], 1) {
				return fmt.Errorf("point %d has collapse cost %g", i, ell[i])
			}
			maxEll = max(maxEll, ell[i])
		}
	}
	var diag2 float64
	for d := range lo {
		diag2 += (hi[d] - lo[d]) * (hi[d] - lo[d])
	}
	reach := math.Sqrt(diag2) + 2*maxEll
	if u.Squared {
		reach = 2*diag2 + 4*maxEll
	}
	if !(max(total, 1)*reach <= math.MaxFloat64) {
		return fmt.Errorf("total weight %g, squared diagonal %g and collapse costs up to %g: the cost overflows", total, diag2, maxEll)
	}
	u.Dim, u.lo, u.hi, u.total, u.ell = dim, lo, hi, total, maxEll
	return nil
}
