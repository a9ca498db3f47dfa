// Package batch implements the Optimization-Guided Batch Deployment of
// Section 3.3: distributing the available workforce W among m deployment
// requests to maximize a platform-centric goal.
//
// Three solvers are provided, matching Section 5.2.1:
//
//   - BatchStrat — the paper's greedy (Algorithm 1): exact for throughput
//     (Theorem 2), 1/2-approximate for the NP-hard pay-off objective
//     (Theorems 1 and 3).
//   - BaselineG — plain density greedy without the best-of step.
//   - BruteForce — exhaustive subset enumeration, exponential, exact.
package batch

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"stratrec/internal/strategy"
	"stratrec/internal/workforce"
)

// Objective is the platform-centric optimization goal F.
type Objective int

const (
	// Throughput maximizes the number of satisfied deployment requests
	// (f_i = 1 for every request).
	Throughput Objective = iota
	// Payoff maximizes the total payment of satisfied requests
	// (f_i = d_i.cost).
	Payoff
)

func (o Objective) String() string {
	switch o {
	case Throughput:
		return "throughput"
	case Payoff:
		return "payoff"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Item is one deployment request prepared for optimization: its aggregated
// workforce requirement, its objective value f_i, and the k strategies that
// would be recommended if it is selected.
type Item struct {
	Index      int     // position of the request in the batch
	Value      float64 // f_i
	Workforce  float64 // aggregated requirement w_i
	Strategies []int   // the k recommended strategy IDs
}

// feasibleAlone reports whether the item can ever be part of a solution.
func (it Item) feasibleAlone(W float64) bool {
	return !math.IsInf(it.Workforce, 1) && it.Workforce <= W
}

// Result is a batch deployment plan. Treat solver-produced Results as
// read-only: IsSelected answers from a membership cache the solvers
// populate while selecting, and mutating Selected afterwards would
// desynchronize the two.
type Result struct {
	// Selected holds the indices (Item.Index) of satisfied requests in
	// selection order.
	Selected []int
	// Objective is the achieved objective value F.
	Objective float64
	// Workforce is the total workforce the plan consumes.
	Workforce float64
	// Recommendations maps each selected request index to its k strategies.
	Recommendations map[int][]int

	// selected caches Selected membership so repeated IsSelected probes —
	// the common pattern in replan-heavy streaming paths — cost O(1)
	// instead of rebuilding a map per call. The solvers populate it
	// eagerly as they select items, so probing a shared Result from
	// multiple goroutines is safe (no lazy mutation).
	selected map[int]bool
}

// selectedSet returns membership of Selected as a map for tests and
// callers. It always returns a fresh map — never the internal cache — so
// callers may mutate the result freely.
func (r *Result) selectedSet() map[int]bool {
	set := make(map[int]bool, len(r.Selected))
	for _, i := range r.Selected {
		set[i] = true
	}
	return set
}

// IsSelected reports whether request index i was satisfied by the plan.
// O(1) for solver-produced plans; hand-assembled Results fall back to a
// linear scan rather than allocating.
func (r *Result) IsSelected(i int) bool {
	if r.selected != nil {
		return r.selected[i]
	}
	for _, idx := range r.Selected {
		if idx == i {
			return true
		}
	}
	return false
}

// BuildItems turns requests and their aggregated requirements into
// optimization items (lines 3-6 of Algorithm 1). Requests whose requirement
// is infeasible are excluded — they can never be satisfied and are routed to
// ADPaR by the core layer.
func BuildItems(requests []strategy.Request, reqs []workforce.Requirement, obj Objective) []Item {
	var items []Item
	for i, r := range reqs {
		if !r.Feasible() {
			continue
		}
		v := 1.0
		if obj == Payoff {
			v = requests[i].Cost
		}
		items = append(items, Item{
			Index:      i,
			Value:      v,
			Workforce:  r.Workforce,
			Strategies: r.Strategies,
		})
	}
	return items
}

// BatchStrat is Algorithm 1: sort items by non-increasing density f_i/w_i,
// greedily add every item that still fits in W, then return the better of
// the greedy solution and the best single item. For throughput all values
// are 1, so density order is ascending workforce order and the greedy
// solution is exact; for pay-off the best-of step yields the 1/2 guarantee.
func BatchStrat(items []Item, W float64) Result {
	scratch := getScratch(len(items))
	defer putScratch(scratch)
	feasible := filterFeasible(*scratch, items, W)
	*scratch = feasible
	sortByDensity(feasible)

	greedy := greedyPack(feasible, W)

	// Best single item: with items sorted by density, the breaking item of
	// the classic knapsack analysis is among the feasible items, so taking
	// the overall best single feasible item dominates it.
	bestSingle := Result{Recommendations: map[int][]int{}}
	for _, it := range feasible {
		if it.Value > bestSingle.Objective {
			bestSingle = singleItemResult(it)
		}
	}
	if bestSingle.Objective > greedy.Objective {
		return bestSingle
	}
	return greedy
}

// BaselineG is the plain greedy baseline of Section 5.2.1: sort by
// non-increasing f_i/w_i and add requests until one no longer fits, without
// the best-of comparison.
func BaselineG(items []Item, W float64) Result {
	scratch := getScratch(len(items))
	defer putScratch(scratch)
	feasible := filterFeasible(*scratch, items, W)
	*scratch = feasible
	sortByDensity(feasible)
	res := Result{Recommendations: map[int][]int{}}
	for _, it := range feasible {
		if res.Workforce+it.Workforce > W {
			break
		}
		addItem(&res, it)
	}
	return res
}

// ErrTooLarge guards BruteForce against instances whose 2^m enumeration
// would not terminate in reasonable time.
var ErrTooLarge = errors.New("batch: brute force limited to 30 items")

// BruteForce enumerates every subset of items and returns the best feasible
// one. Exponential in len(items); used as the exact reference in the quality
// experiments (Figures 15, 16, 18a).
func BruteForce(items []Item, W float64) (Result, error) {
	n := len(items)
	if n > 30 {
		return Result{}, ErrTooLarge
	}
	best := Result{Recommendations: map[int][]int{}}
	var bestMask uint64
	found := false
	for mask := uint64(0); mask < 1<<uint(n); mask++ {
		var value, weight float64
		ok := true
		for b := 0; b < n && ok; b++ {
			if mask&(1<<uint(b)) == 0 {
				continue
			}
			it := items[b]
			if math.IsInf(it.Workforce, 1) {
				ok = false
				break
			}
			value += it.Value
			weight += it.Workforce
			if weight > W {
				ok = false
			}
		}
		if ok && (!found || value > best.Objective ||
			(value == best.Objective && weight < best.Workforce)) {
			found = true
			best.Objective = value
			best.Workforce = weight
			bestMask = mask
		}
	}
	best.Selected = nil
	best.Recommendations = map[int][]int{}
	best.selected = map[int]bool{}
	for b := 0; b < n; b++ {
		if bestMask&(1<<uint(b)) != 0 {
			best.Selected = append(best.Selected, items[b].Index)
			best.Recommendations[items[b].Index] = items[b].Strategies
			best.selected[items[b].Index] = true
		}
	}
	return best, nil
}

// ApproximationFactor returns achieved/optimal, treating 0/0 as 1. It is the
// metric reported by Figure 16.
func ApproximationFactor(achieved, optimal float64) float64 {
	if optimal == 0 {
		return 1
	}
	return achieved / optimal
}

// scratchPool recycles the feasibility-filter slices of the fresh solver
// entry points (BatchStrat, BaselineG, BranchAndBound). The filtered slice
// never escapes a solver call — Results copy Items by value and reference
// only the caller-owned Strategies backing arrays — so the per-call
// allocation that used to dominate replan-heavy event streams is gone.
var scratchPool = sync.Pool{New: func() any { s := make([]Item, 0, 64); return &s }}

func getScratch(n int) *[]Item {
	p := scratchPool.Get().(*[]Item)
	if cap(*p) < n {
		*p = make([]Item, 0, n)
	}
	return p
}

func putScratch(p *[]Item) {
	*p = (*p)[:0]
	scratchPool.Put(p)
}

// filterFeasible appends the feasible-alone items to dst (a reusable
// scratch, truncated first) and returns it.
func filterFeasible(dst, items []Item, W float64) []Item {
	dst = dst[:0]
	for _, it := range items {
		if it.feasibleAlone(W) {
			dst = append(dst, it)
		}
	}
	return dst
}

// compareItems is the density order of Algorithm 1: non-increasing f_i/w_i,
// ties broken on smaller workforce, then on smaller index. For items with
// distinct indices (every solver input built by BuildItems, and every
// Planner pool) this is a strict total order, which is what lets
// the incremental Planner keep an ordered pool whose iteration order is
// identical to a fresh sort.
func compareItems(a, b Item) int {
	da, db := density(a), density(b)
	if da != db {
		if da > db {
			return -1
		}
		return 1
	}
	if a.Workforce != b.Workforce {
		if a.Workforce < b.Workforce {
			return -1
		}
		return 1
	}
	if a.Index != b.Index {
		if a.Index < b.Index {
			return -1
		}
		return 1
	}
	return 0
}

// sortByDensity orders by non-increasing f_i/w_i. Zero-workforce items have
// infinite density and come first; ties break on smaller workforce, then on
// input order for determinism. SortStableFunc avoids the interface boxing
// and closure indirection of sort.SliceStable on this per-replan hot path.
func sortByDensity(items []Item) {
	slices.SortStableFunc(items, compareItems)
}

func density(it Item) float64 {
	if it.Workforce == 0 {
		return math.Inf(1)
	}
	return it.Value / it.Workforce
}

func greedyPack(sorted []Item, W float64) Result {
	res := Result{Recommendations: map[int][]int{}}
	for _, it := range sorted {
		if res.Workforce+it.Workforce > W {
			continue
		}
		addItem(&res, it)
	}
	return res
}

func singleItemResult(it Item) Result {
	res := Result{Recommendations: map[int][]int{}}
	addItem(&res, it)
	return res
}

func addItem(res *Result, it Item) {
	if res.selected == nil {
		res.selected = map[int]bool{}
	}
	res.Selected = append(res.Selected, it.Index)
	res.selected[it.Index] = true
	res.Objective += it.Value
	res.Workforce += it.Workforce
	res.Recommendations[it.Index] = it.Strategies
}
