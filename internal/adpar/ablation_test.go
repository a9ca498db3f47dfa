package adpar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stratrec/internal/geometry"
	"stratrec/internal/strategy"
)

// TestExactWithOuterDimValidation covers the explicit-dimension entry
// point's input checking.
func TestExactWithOuterDimValidation(t *testing.T) {
	set := strategy.PaperExampleStrategies()
	d := strategy.PaperExampleRequests()[0]
	if _, err := ExactWithOuterDim(set, d, -1); err == nil {
		t.Error("negative dimension accepted")
	}
	if _, err := ExactWithOuterDim(set, d, 3); err == nil {
		t.Error("dimension 3 accepted")
	}
	if _, err := ExactWithOuterDim(set, strategy.Request{Params: d.Params, K: 0}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestPropertyOuterDimChoiceIsExact: ADPaR-Exact returns the same optimal
// distance regardless of which dimension drives the outer sweep — the
// fewest-distinct-values heuristic is a performance choice, not a
// correctness one.
func TestPropertyOuterDimChoiceIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	f := func() bool {
		set, d := randomInstance(rng, 20)
		base, err := Exact(set, d)
		if err != nil {
			return false
		}
		for dim := 0; dim < geometry.Dims; dim++ {
			sol, err := ExactWithOuterDim(set, d, dim)
			if err != nil {
				return false
			}
			if math.Abs(sol.Distance-base.Distance) > 1e-9 {
				return false
			}
			if len(sol.Covered) < d.K {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// BenchmarkAblationOuterDim quantifies the outer-dimension choice of
// `experiments -run ablations`: duplicate-heavy dimensions make the
// heuristic pick the dimension with fewest distinct candidate values, which
// shrinks the outer loop. The workload plants heavy duplication in the
// latency dimension.
func BenchmarkAblationOuterDim(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n := 5000
	set := make(strategy.Set, n)
	latencies := []float64{0.2, 0.4, 0.6, 0.8} // 4 distinct values only
	for i := range set {
		set[i] = strategy.Strategy{ID: i, Params: strategy.Params{
			Quality: rng.Float64() * 0.5,
			Cost:    0.5 + 0.5*rng.Float64(),
			Latency: latencies[rng.Intn(len(latencies))],
		}}
	}
	d := strategy.Request{
		ID:     "bench",
		Params: strategy.Params{Quality: 0.9, Cost: 0.1, Latency: 0.1},
		K:      25,
	}
	b.Run("heuristic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Exact(set, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	for dim := 0; dim < geometry.Dims; dim++ {
		b.Run("outer="+geometry.DimNames[dim], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ExactWithOuterDim(set, d, dim); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
