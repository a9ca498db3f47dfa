package linmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stratrec/internal/strategy"
)

func TestModelAt(t *testing.T) {
	m := Model{Alpha: 0.09, Beta: 0.85} // Table 6 translation SEQ-IND-CRO quality
	if got := m.At(0); math.Abs(got-0.85) > 1e-12 {
		t.Errorf("At(0) = %v", got)
	}
	if got := m.At(1); math.Abs(got-0.94) > 1e-12 {
		t.Errorf("At(1) = %v", got)
	}
	// Clamping: Table 6 latency model exceeds 1 at w=0.
	lat := Model{Alpha: -0.98, Beta: 1.40}
	if got := lat.At(0); got != 1 {
		t.Errorf("At(0) should clamp to 1, got %v", got)
	}
	if got := lat.AtRaw(0); got != 1.40 {
		t.Errorf("AtRaw(0) = %v", got)
	}
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

func TestWorkforceForLowerBound(t *testing.T) {
	m := Model{Alpha: 0.5, Beta: 0.4} // quality from 0.4 to 0.9
	cases := []struct {
		threshold float64
		want      float64
	}{
		{0.3, 0},           // already met at w=0
		{0.4, 0},           // met exactly at w=0
		{0.65, 0.5},        // interior crossing
		{0.9, 1},           // met exactly at w=1
		{0.95, Infeasible}, // unreachable
	}
	for _, c := range cases {
		got := m.WorkforceFor(c.threshold, LowerBound)
		if math.IsInf(c.want, 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("WorkforceFor(%v) = %v, want Infeasible", c.threshold, got)
			}
			continue
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WorkforceFor(%v) = %v, want %v", c.threshold, got, c.want)
		}
	}
}

func TestWorkforceForUpperBoundDecreasing(t *testing.T) {
	m := Model{Alpha: -0.98, Beta: 1.40} // latency falls with availability
	// Latency <= 0.8 requires w >= (0.8-1.4)/-0.98.
	want := (0.8 - 1.4) / -0.98
	if got := m.WorkforceFor(0.8, UpperBound); math.Abs(got-want) > 1e-12 {
		t.Errorf("WorkforceFor = %v, want %v", got, want)
	}
	// Latency <= 0.3 is unreachable (minimum is 0.42 at w=1).
	if got := m.WorkforceFor(0.3, UpperBound); !math.IsInf(got, 1) {
		t.Errorf("WorkforceFor(0.3) = %v, want Infeasible", got)
	}
	// Latency <= 1.5 holds everywhere.
	if got := m.WorkforceFor(1.5, UpperBound); got != 0 {
		t.Errorf("WorkforceFor(1.5) = %v, want 0", got)
	}
}

func TestFeasibleIntervalUpperBoundIncreasing(t *testing.T) {
	// Cost grows with availability: a budget caps availability from above.
	m := Model{Alpha: 1.0, Beta: 0.0} // Table 6 cost SEQ-IND-CRO
	iv := m.FeasibleInterval(0.6, UpperBound)
	if iv.Lo != 0 || math.Abs(iv.Hi-0.6) > 1e-12 {
		t.Errorf("interval = %+v, want [0, 0.6]", iv)
	}
	iv = m.FeasibleInterval(1.2, UpperBound)
	if iv.Lo != 0 || iv.Hi != 1 {
		t.Errorf("loose budget interval = %+v, want [0, 1]", iv)
	}
}

func TestFeasibleIntervalConstantModel(t *testing.T) {
	m := Model{Alpha: 0, Beta: 0.5}
	if iv := m.FeasibleInterval(0.4, LowerBound); iv.Empty() {
		t.Error("constant 0.5 should meet lower bound 0.4 everywhere")
	}
	if iv := m.FeasibleInterval(0.6, LowerBound); !iv.Empty() {
		t.Error("constant 0.5 should never meet lower bound 0.6")
	}
}

func TestIntervalIntersect(t *testing.T) {
	a := Interval{Lo: 0.2, Hi: 0.8}
	b := Interval{Lo: 0.5, Hi: 1.0}
	got := a.Intersect(b)
	if got.Lo != 0.5 || got.Hi != 0.8 {
		t.Errorf("Intersect = %+v", got)
	}
	c := Interval{Lo: 0.9, Hi: 1.0}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersection should be empty")
	}
}

// Breakdown reports the three per-parameter minimum requirements
// (w_q, w_c, w_l) of Figure 3a, whose maximum is the paper's requirement.
func (pm ParamModels) Breakdown(d strategy.Params) (wq, wc, wl float64) {
	return pm.Quality.WorkforceFor(d.Quality, LowerBound),
		pm.Cost.WorkforceFor(d.Cost, UpperBound),
		pm.Latency.WorkforceFor(d.Latency, UpperBound)
}

// tableSeqIndCro returns the Table 6 translation SEQ-IND-CRO models.
func tableSeqIndCro() ParamModels {
	return ParamModels{
		Quality: Model{Alpha: 0.09, Beta: 0.85},
		Cost:    Model{Alpha: 1.00, Beta: 0.00},
		Latency: Model{Alpha: -0.98, Beta: 1.40},
	}
}

func TestParamsAt(t *testing.T) {
	pm := tableSeqIndCro()
	p := pm.ParamsAt(0.8)
	if math.Abs(p.Quality-0.922) > 1e-12 {
		t.Errorf("Quality = %v", p.Quality)
	}
	if math.Abs(p.Cost-0.8) > 1e-12 {
		t.Errorf("Cost = %v", p.Cost)
	}
	if math.Abs(p.Latency-(1.40-0.98*0.8)) > 1e-12 {
		t.Errorf("Latency = %v", p.Latency)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("estimated params invalid: %v", err)
	}
}

func TestRequirementMatchesPaperMax(t *testing.T) {
	// On the paper's model shapes the requirement equals
	// max(w_q, w_c, w_l) of Figure 3a when the budget does not bind.
	pm := tableSeqIndCro()
	d := strategy.Params{Quality: 0.9, Cost: 0.95, Latency: 0.7}
	wq, wc, wl := pm.Breakdown(d)
	want := math.Max(wq, math.Max(wc, wl))
	if got := pm.Requirement(d); math.Abs(got-want) > 1e-12 {
		t.Errorf("Requirement = %v, want max(%v, %v, %v) = %v", got, wq, wc, wl, want)
	}
	// Quality 0.9 needs w >= 0.555..., latency 0.7 needs w >= 0.714...;
	// latency dominates.
	if math.Abs(want-(0.7-1.40)/-0.98) > 1e-12 {
		t.Errorf("dominating requirement = %v", want)
	}
}

func TestRequirementBudgetCapsAvailability(t *testing.T) {
	// The generalization beyond the paper's max formula: with cost
	// increasing in availability, a tight budget can make the deployment
	// infeasible even though quality and latency alone would be reachable.
	pm := tableSeqIndCro()
	d := strategy.Params{Quality: 0.9, Cost: 0.30, Latency: 0.7}
	// Quality/latency force w >= 0.714 but cost <= 0.30 caps w <= 0.30.
	if got := pm.Requirement(d); !math.IsInf(got, 1) {
		t.Errorf("Requirement = %v, want Infeasible (budget conflict)", got)
	}
	// A budget of 0.8 leaves room: requirement is the latency bound.
	d.Cost = 0.8
	if got := pm.Requirement(d); math.Abs(got-(0.7-1.40)/-0.98) > 1e-12 {
		t.Errorf("Requirement = %v", got)
	}
}

func TestRequirementInfeasibleQuality(t *testing.T) {
	pm := tableSeqIndCro()
	d := strategy.Params{Quality: 0.99, Cost: 1, Latency: 1} // max quality is 0.94
	if got := pm.Requirement(d); !math.IsInf(got, 1) {
		t.Errorf("Requirement = %v, want Infeasible", got)
	}
}

func TestPropertyRequirementIsMinimalFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		pm := ParamModels{
			Quality: Model{Alpha: rng.Float64(), Beta: rng.Float64() * 0.8},
			Cost:    Model{Alpha: rng.Float64(), Beta: rng.Float64() * 0.5},
			Latency: Model{Alpha: -rng.Float64(), Beta: 0.5 + rng.Float64()},
		}
		d := strategy.Params{Quality: rng.Float64(), Cost: rng.Float64(), Latency: rng.Float64()}
		req := pm.Requirement(d)
		meets := func(w float64) bool {
			return pm.Quality.AtRaw(w) >= d.Quality &&
				pm.Cost.AtRaw(w) <= d.Cost &&
				pm.Latency.AtRaw(w) <= d.Latency
		}
		if math.IsInf(req, 1) {
			// No sampled availability should work.
			for w := 0.0; w <= 1.0; w += 0.05 {
				if meets(w) {
					return false
				}
			}
			return true
		}
		// The requirement itself must work (allowing boundary rounding)...
		if !meets(req + 1e-12) {
			return false
		}
		// ...and nothing strictly below it should, sampled coarsely.
		for w := 0.0; w < req-1e-9; w += req / 7 {
			if meets(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFeasibleIntervalSound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func() bool {
		m := Model{Alpha: rng.Float64()*4 - 2, Beta: rng.Float64()*2 - 0.5}
		threshold := rng.Float64()
		dir := LowerBound
		if rng.Intn(2) == 0 {
			dir = UpperBound
		}
		iv := m.FeasibleInterval(threshold, dir)
		meets := func(v float64) bool {
			if dir == LowerBound {
				return v >= threshold
			}
			return v <= threshold
		}
		for w := 0.0; w <= 1.0001; w += 0.04 {
			inside := !iv.Empty() && w >= iv.Lo-1e-9 && w <= iv.Hi+1e-9
			if meets(m.AtRaw(w)) != inside {
				// Boundary tolerance: allow disagreement within epsilon of
				// the interval ends.
				if !iv.Empty() && (math.Abs(w-iv.Lo) < 1e-6 || math.Abs(w-iv.Hi) < 1e-6) {
					continue
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
