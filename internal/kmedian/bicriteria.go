package kmedian

import (
	"math"

	"dpc/internal/engine"
	"dpc/internal/metric"
)

// Relax selects which criterion Theorem 3.1 relaxes.
type Relax int

const (
	// RelaxOutliers returns sol(Z, k, (1+eps)t).
	RelaxOutliers Relax = iota
	// RelaxCenters returns sol(Z, (1+eps)k, t).
	RelaxCenters
)

// autoJVLimit is the instance size up to which engine.Auto picks JV.
const autoJVLimit = 140

// useJV reports whether opt.Algo sends a solve over c to the JV engine.
func useJV(c metric.Costs, opt Options) bool {
	return opt.Algo == engine.JV || (opt.Algo == engine.Auto && c.Clients() <= autoJVLimit)
}

// Solve dispatches a plain (k,t) solve (unicriterion budget) to the engine
// opt.Algo selects — the "Compute sol(A_i, 2k, q)" of Algorithm 1 Line 3.
func Solve(c metric.Costs, w []float64, k int, t float64, opt Options) Solution {
	if useJV(c, opt) {
		return JV(c, w, k, t, 0, opt)
	}
	return LocalSearch(c, w, k, t, opt)
}

// Bicriteria is the Theorem 3.1 solver: it computes sol(Z,k,(1+eps)t) or
// sol(Z,(1+eps)k,t) for the (k,t)-median problem (means when c is a
// metric.Squared oracle) with constant-factor quality in the O(1/eps)
// regime. eps <= 0 is treated as 0 (unicriterion evaluation budget).
// opt.Algo selects the engine.
func Bicriteria(c metric.Costs, w []float64, k int, t float64, eps float64, relax Relax, opt Options) Solution {
	if eps < 0 {
		eps = 0
	}
	jv := useJV(c, opt)
	switch relax {
	case RelaxCenters:
		kk := int(math.Ceil(float64(k) * (1 + eps)))
		if kk < k {
			kk = k
		}
		if jv {
			return JV(c, w, kk, t, 0, opt)
		}
		return LocalSearch(c, w, kk, t, opt)
	default: // RelaxOutliers
		if jv {
			return JV(c, w, k, t, eps, opt)
		}
		return LocalSearch(c, w, k, t*(1+eps), opt)
	}
}
