package adpar

import (
	"errors"

	"stratrec/internal/geometry"
	"stratrec/internal/strategy"
)

// This file implements ADPaRB, the exponential brute-force reference of
// Section 5.2.1: examine all strategy subsets of size k, take the tightest
// bound covering each subset (the componentwise maximum), and return the
// subset whose bound is closest to the original parameters.

// BruteForceLimit caps the instance size BruteForceK accepts; beyond ~32
// strategies the C(n,k) enumeration is hopeless even with pruning.
const BruteForceLimit = 32

// ErrTooLarge is returned when the instance exceeds BruteForceLimit.
var ErrTooLarge = errors.New("adpar: instance too large for brute force")

// BruteForceK is ADPaRB. It enumerates k-subsets recursively, pruning
// branches whose partial bound is already farther than the best found.
func BruteForceK(set strategy.Set, d strategy.Request) (Solution, error) {
	p, err := newProblem(set, d)
	if err != nil {
		return Solution{}, err
	}
	n := len(p.pts)
	if n > BruteForceLimit {
		return Solution{}, ErrTooLarge
	}
	best2 := 1e308
	var bestAlt geometry.Point3
	found := false

	// Recurse over strategies in input order; alt is the bound covering the
	// chosen prefix subset.
	var recurse func(start, chosen int, alt geometry.Point3)
	recurse = func(start, chosen int, alt geometry.Point3) {
		if chosen == p.k {
			d2 := alt.Dist2(p.u)
			if !found || d2 < best2 {
				found = true
				best2 = d2
				bestAlt = alt
			}
			return
		}
		if n-start < p.k-chosen {
			return // not enough strategies left
		}
		for i := start; i < n; i++ {
			next := alt.Max(geometry.Point3{p.abs[i][0], p.abs[i][1], p.abs[i][2]})
			if next.Dist2(p.u) >= best2 && found {
				continue // pruning: bounds only grow along the branch
			}
			recurse(i+1, chosen+1, next)
		}
	}
	recurse(0, 0, p.u)
	if !found {
		return Solution{}, ErrNotEnoughStrategies
	}
	return p.solutionAt(bestAlt), nil
}
