// Package linmodel implements the deployment strategy modeling of Section
// 3.1: every (strategy, deployment, parameter) combination carries a linear
// model p = alpha*w + beta mapping worker availability w in [0,1] to an
// estimated parameter value, plus the inverse mapping used by the workforce
// requirement computation of Section 3.2.
//
// The paper computes the workforce requirement as the maximum of the three
// per-parameter equality solutions w_p = (threshold_p - beta)/alpha. That
// formula implicitly assumes every constraint tightens as availability
// grows scarce (i.e. every constraint is a lower bound on w). This package
// generalizes it: each constraint induces a feasible availability interval,
// and the requirement is the lower end of the intersection — identical to
// the paper's value on the paper's model shapes, and still correct when a
// constraint (such as a cost budget under a cost-increases-with-availability
// model) caps availability from above.
package linmodel

import (
	"fmt"
	"math"

	"stratrec/internal/strategy"
)

// Infeasible is the workforce requirement of a threshold combination that
// cannot be met with any availability in [0,1].
var Infeasible = math.Inf(1)

// Direction says which way a deployment threshold bounds a parameter.
type Direction int

const (
	// LowerBound means the strategy parameter must be at least the
	// threshold (quality).
	LowerBound Direction = iota
	// UpperBound means the strategy parameter must be at most the
	// threshold (cost, latency).
	UpperBound
)

// Interval is a closed availability interval [Lo, Hi] within [0,1]. An
// empty interval has Lo > Hi.
type Interval struct {
	Lo, Hi float64
}

// Empty reports whether no availability satisfies the constraint.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(other Interval) Interval {
	return Interval{Lo: math.Max(iv.Lo, other.Lo), Hi: math.Min(iv.Hi, other.Hi)}
}

// emptyInterval is the canonical empty interval.
var emptyInterval = Interval{Lo: 1, Hi: 0}

// full is the unconstrained interval.
var fullInterval = Interval{Lo: 0, Hi: 1}

// Model is a linear parameter model p(w) = Alpha*w + Beta.
type Model struct {
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
}

// At evaluates the model at availability w, clamped into [0,1] so estimates
// remain valid normalized parameters.
func (m Model) At(w float64) float64 {
	return clamp01(m.Alpha*w + m.Beta)
}

// AtRaw evaluates the model without clamping. Used by fitting code and
// tests that need the unclamped line.
func (m Model) AtRaw(w float64) float64 { return m.Alpha*w + m.Beta }

// FeasibleInterval returns the availability interval on which the modeled
// parameter meets the threshold in the given direction.
func (m Model) FeasibleInterval(threshold float64, dir Direction) Interval {
	meets := func(v float64) bool {
		if dir == LowerBound {
			return v >= threshold
		}
		return v <= threshold
	}
	m0, m1 := meets(m.AtRaw(0)), meets(m.AtRaw(1))
	switch {
	case m0 && m1:
		return fullInterval
	case !m0 && !m1:
		return emptyInterval
	}
	// The line crosses the threshold exactly once in (0,1).
	cross := clamp01((threshold - m.Beta) / m.Alpha)
	if m0 {
		return Interval{Lo: 0, Hi: cross}
	}
	return Interval{Lo: cross, Hi: 1}
}

// WorkforceFor returns the minimum availability w in [0,1] for which the
// modeled parameter meets the threshold, or Infeasible if none does. This
// is the paper's "solve Equation 4 for w under the equality condition" step
// with the boundary cases made explicit.
func (m Model) WorkforceFor(threshold float64, dir Direction) float64 {
	iv := m.FeasibleInterval(threshold, dir)
	if iv.Empty() {
		return Infeasible
	}
	return iv.Lo
}

// ParamModels bundles the three per-parameter models of one (strategy,
// deployment) combination.
type ParamModels struct {
	Quality Model `json:"quality"`
	Cost    Model `json:"cost"`
	Latency Model `json:"latency"`
}

// ParamsAt estimates the strategy parameters at availability w (Equation 4
// applied to all three parameters).
func (pm ParamModels) ParamsAt(w float64) strategy.Params {
	return strategy.Params{
		Quality: pm.Quality.At(w),
		Cost:    pm.Cost.At(w),
		Latency: pm.Latency.At(w),
	}
}

// FeasibleInterval intersects the three per-parameter feasibility
// intervals for deployment thresholds d.
func (pm ParamModels) FeasibleInterval(d strategy.Params) Interval {
	iv := pm.Quality.FeasibleInterval(d.Quality, LowerBound)
	iv = iv.Intersect(pm.Cost.FeasibleInterval(d.Cost, UpperBound))
	return iv.Intersect(pm.Latency.FeasibleInterval(d.Latency, UpperBound))
}

// Requirement computes the workforce requirement w_ij of deploying request
// d with this model set: the smallest availability at which all three
// thresholds hold simultaneously (the lower end of the intersected feasible
// intervals), or Infeasible when no availability in [0,1] works. On the
// paper's model shapes — quality and cost non-decreasing, latency
// non-increasing, budget loose at the requirement — this equals the
// paper's max(w_q, w_c, w_l) (Section 3.2, Figure 3a).
//
// It is the catalog scan's kernel, so it intersects the three
// FeasibleInterval results in one pass, with the builtin max and min (the
// same bits as Intersect's math.Max and math.Min) and returning Infeasible
// as soon as the running intersection is empty. Its answer is
// bit-identical to the lower end of FeasibleInterval(d) for finite
// coefficients and thresholds, the only domain that reaches it: JSON
// cannot carry NaN or Inf, and synthetic and fitted models are finite.
// There an empty intersection stays empty, so the early exit changes no
// answer.
//
//lint:allocfree
func (pm ParamModels) Requirement(d strategy.Params) float64 {
	iv := pm.Quality.FeasibleInterval(d.Quality, LowerBound)
	if iv.Empty() {
		return Infeasible
	}
	c := pm.Cost.FeasibleInterval(d.Cost, UpperBound)
	iv = Interval{Lo: max(iv.Lo, c.Lo), Hi: min(iv.Hi, c.Hi)}
	if iv.Empty() {
		return Infeasible
	}
	l := pm.Latency.FeasibleInterval(d.Latency, UpperBound)
	iv = Interval{Lo: max(iv.Lo, l.Lo), Hi: min(iv.Hi, l.Hi)}
	if iv.Empty() {
		return Infeasible
	}
	return iv.Lo
}

// Breakdown reports the three per-parameter minimum requirements
// (w_q, w_c, w_l) of Figure 3a, for diagnostics and the worked-example
// tests.
func (pm ParamModels) Breakdown(d strategy.Params) (wq, wc, wl float64) {
	return pm.Quality.WorkforceFor(d.Quality, LowerBound),
		pm.Cost.WorkforceFor(d.Cost, UpperBound),
		pm.Latency.WorkforceFor(d.Latency, UpperBound)
}

// Validate sanity-checks a model set against the empirically validated
// directions of Section 5.1.1 (Table 6): quality and cost should not
// decrease with availability and latency should not increase. Violations
// are reported, not fatal, because the paper notes StratRec could be
// adapted to tasks without these relationships.
func (pm ParamModels) Validate() error {
	if pm.Quality.Alpha < 0 {
		return fmt.Errorf("linmodel: quality slope %v is negative", pm.Quality.Alpha)
	}
	if pm.Cost.Alpha < 0 {
		return fmt.Errorf("linmodel: cost slope %v is negative", pm.Cost.Alpha)
	}
	if pm.Latency.Alpha > 0 {
		return fmt.Errorf("linmodel: latency slope %v is positive", pm.Latency.Alpha)
	}
	return nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
