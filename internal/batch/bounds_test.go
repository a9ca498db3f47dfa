package batch

import (
	"fmt"
	"math/rand"
	"testing"

	"stratrec/internal/strategy"
	"stratrec/internal/workforce"
)

// randomBatch builds a batch of m random feasible requests with the
// requirement shapes the synthetic experiments produce.
func randomBatch(rng *rand.Rand, m int) ([]strategy.Request, []workforce.Requirement) {
	reqs := make([]strategy.Request, m)
	wf := make([]workforce.Requirement, m)
	for i := range reqs {
		reqs[i] = strategy.Request{
			ID:     fmt.Sprintf("d%d", i+1),
			Params: strategy.Params{Quality: 0.5 * rng.Float64(), Cost: 0.625 + 0.375*rng.Float64(), Latency: rng.Float64()},
			K:      1 + rng.Intn(3),
		}
		wf[i] = workforce.Requirement{Workforce: 0.01 + 0.2*rng.Float64(), Strategies: []int{rng.Intn(8)}}
	}
	return reqs, wf
}

// TestCompositeVsBranchAndBoundTableSized pins the bounds on the batch
// plan BatchStrat composes against the exact branch-and-bound reference
// at the batch sizes of the quality experiments (Figures 15/16), far
// beyond the 2^m range the BruteForce cross-check covers: for both
// objectives the greedy achieves at least half the exact optimum
// (Theorem 3), never exceeds it, and for throughput matches it exactly
// (Theorem 2).
func TestCompositeVsBranchAndBoundTableSized(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	for _, m := range []int{20, 40, 80} {
		for _, obj := range []Objective{Throughput, Payoff} {
			for trial := 0; trial < 10; trial++ {
				reqs, wf := randomBatch(rng, m)
				items := BuildItems(reqs, wf, obj)
				W := 0.2 + 0.8*rng.Float64()

				got := BatchStrat(items, W)
				opt := BranchAndBound(items, W)
				eps := 1e-9 * (1 + opt.Objective)
				name := fmt.Sprintf("m=%d objective=%s trial=%d", m, obj, trial)

				if got.Objective > opt.Objective+eps {
					t.Fatalf("%s: greedy %v above exact optimum %v", name, got.Objective, opt.Objective)
				}
				if got.Objective < opt.Objective/2-eps {
					t.Fatalf("%s: greedy %v below half of optimum %v", name, got.Objective, opt.Objective)
				}
				if obj == Throughput && got.Objective < opt.Objective-eps {
					t.Fatalf("%s: throughput greedy %v not exact vs %v", name, got.Objective, opt.Objective)
				}
				if got.Workforce > W+eps || opt.Workforce > W+eps {
					t.Fatalf("%s: plan over capacity: greedy %v, exact %v > W=%v", name, got.Workforce, opt.Workforce, W)
				}
			}
		}
	}
}

// TestBranchAndBoundSelectionConsistency: at Table-sized inputs the exact
// solver's reported objective and workforce stay consistent with its
// selected items and recommendations.
func TestBranchAndBoundSelectionConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reqs, wf := randomBatch(rng, 60)
	items := BuildItems(reqs, wf, Payoff)
	W := 0.8
	opt := BranchAndBound(items, W)

	byIndex := map[int]Item{}
	for _, it := range items {
		byIndex[it.Index] = it
	}
	var value, weight float64
	for _, idx := range opt.Selected {
		it, ok := byIndex[idx]
		if !ok {
			t.Fatalf("selected unknown index %d", idx)
		}
		value += it.Value
		weight += it.Workforce
		if !opt.IsSelected(idx) {
			t.Fatalf("IsSelected(%d) false for a selected item", idx)
		}
		if len(opt.Recommendations[idx]) != len(it.Strategies) {
			t.Fatalf("recommendations for %d lost strategies", idx)
		}
	}
	if diff := value - opt.Objective; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("objective %v != summed values %v", opt.Objective, value)
	}
	if diff := weight - opt.Workforce; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("workforce %v != summed weights %v", opt.Workforce, weight)
	}
}
