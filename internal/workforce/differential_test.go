package workforce

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"stratrec/internal/linmodel"
	"stratrec/internal/strategy"
)

// diffCatalog draws a random catalog of n strategies and its per-strategy
// models. A tied catalog draws every coefficient from a coarse grid, so
// many strategies share a requirement and the K-selection's tie order
// decides which of them it keeps; the rest draw continuous coefficients
// in the paper's shapes plus a share of infeasible and signed-zero ones.
func diffCatalog(rng *rand.Rand, n int, tied bool) (strategy.Set, PerStrategyModels) {
	grid := []float64{-0.5, -0.25, math.Copysign(0, -1), 0, 0.25, 0.5, 0.75, 1}
	coef := func(lo, hi float64) float64 {
		if tied || rng.Intn(20) == 0 {
			return grid[rng.Intn(len(grid))]
		}
		return lo + (hi-lo)*rng.Float64()
	}
	set := make(strategy.Set, n)
	models := make(PerStrategyModels, n)
	for j := range set {
		set[j] = strategy.Strategy{ID: j, Params: strategy.Params{Quality: 0.8, Cost: 0.3, Latency: 0.3}}
		models[j] = linmodel.ParamModels{
			Quality: linmodel.Model{Alpha: coef(-0.2, 1), Beta: coef(0, 0.8)},
			Cost:    linmodel.Model{Alpha: coef(-0.2, 1), Beta: coef(0, 0.5)},
			Latency: linmodel.Model{Alpha: coef(-1, 0.2), Beta: coef(0.3, 1.2)},
		}
	}
	return set, models
}

// diffRequest draws thresholds on the same grid as a tied catalog, or
// uniformly otherwise.
func diffRequest(rng *rand.Rand, tied bool) strategy.Params {
	th := func() float64 {
		if tied {
			return float64(rng.Intn(5)) / 4
		}
		return rng.Float64()
	}
	return strategy.Params{Quality: th(), Cost: th(), Latency: th()}
}

func sameRequirement(a, b Requirement) bool {
	return math.Float64bits(a.Workforce) == math.Float64bits(b.Workforce) &&
		(a.Strategies == nil) == (b.Strategies == nil) &&
		slices.Equal(a.Strategies, b.Strategies)
}

// TestRequirementForMatchesHeapReference: RequirementFor (through both the
// PerStrategyModels fast path and the generic ModelProvider path),
// Matrix.Aggregate and kSmallest give exactly the answers of the
// container/heap selection they replaced — the same Workforce bits and
// the same Strategies in the same order — in both modes for K from 1 to
// 20, over continuous catalogs and tie-heavy grid catalogs alike.
func TestRequirementForMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const catalogs = 1000
	for c := 0; c < catalogs; c++ {
		tied := c%2 == 0
		n := 1 + rng.Intn(48)
		set, per := diffCatalog(rng, n, tied)
		full := FullModels{per}
		reqs := make([]strategy.Request, 20)
		for i := range reqs {
			reqs[i] = strategy.Request{ID: "d", Params: diffRequest(rng, tied), K: i + 1}
		}
		mat, err := Compute(reqs, set, per)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range reqs {
			if got, want := kSmallest(mat.entries[i*n:(i+1)*n], d.K), heapKSmallest(mat.entries[i*n:(i+1)*n], d.K); !slices.Equal(got, want) {
				t.Fatalf("catalog %d (tied=%v), k=%d: kSmallest = %v, heap reference %v", c, tied, d.K, got, want)
			}
			for _, mode := range []Mode{SumCase, MaxCase} {
				want := heapRequirementFor(d, 0, set, per, mode)
				for name, got := range map[string]Requirement{
					"RequirementFor(PerStrategyModels)": RequirementFor(d, 0, set, per, mode),
					"RequirementFor(FullModels)":        RequirementFor(d, 0, set, full, mode),
					"Matrix.Aggregate":                  mat.Aggregate(i, d.K, mode),
				} {
					if !sameRequirement(got, want) {
						t.Fatalf("catalog %d (tied=%v), k=%d, %v: %s = %+v, heap reference %+v",
							c, tied, d.K, mode, name, got, want)
					}
				}
			}
		}
	}
}

// TestRequirementForLargeK: past the stack buffer (K > selectStack) and
// past the catalog size the answers still match the reference.
func TestRequirementForLargeK(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for c := 0; c < 200; c++ {
		tied := c%2 == 0
		n := 1 + rng.Intn(80)
		set, per := diffCatalog(rng, n, tied)
		d := strategy.Request{ID: "d", Params: diffRequest(rng, tied), K: selectStack + 1 + rng.Intn(n+8)}
		for _, mode := range []Mode{SumCase, MaxCase} {
			if got, want := RequirementFor(d, 0, set, per, mode), heapRequirementFor(d, 0, set, per, mode); !sameRequirement(got, want) {
				t.Fatalf("catalog %d, n=%d, k=%d, %v: RequirementFor = %+v, heap reference %+v", c, n, d.K, mode, got, want)
			}
		}
	}
	if got := RequirementFor(strategy.Request{K: math.MaxInt}, 0, testSet(2), testModels([]float64{0.5, 0.5}), SumCase); got.Feasible() || got.Strategies != nil {
		t.Errorf("k beyond the catalog: %+v, want Infeasible", got)
	}
}

// TestRequirementForAllocations: at K <= selectStack the only allocation
// left is the Strategies slice of the answer. The provider is converted
// to its interface once, as stream.Manager holds it.
func TestRequirementForAllocations(t *testing.T) {
	set, per := diffCatalog(rand.New(rand.NewSource(19)), 200, false)
	var models ModelProvider = per
	d := strategy.Request{ID: "d", Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 3}
	if !RequirementFor(d, 0, set, models, MaxCase).Feasible() {
		t.Fatal("fixture request infeasible")
	}
	if allocs := testing.AllocsPerRun(100, func() { RequirementFor(d, 0, set, models, MaxCase) }); allocs != 1 {
		t.Errorf("RequirementFor allocates %v times per call, want 1", allocs)
	}
}
