// Package adpar implements the Alternative Parameter Recommendation problem
// of Section 4: given a deployment request d that cannot be served k
// strategies, find the alternative parameters d' minimizing the Euclidean
// distance to d such that at least k strategies satisfy d' (Equation 3).
//
// Four solvers are provided, matching Section 5.2.1:
//
//   - Exact — the paper's ADPaR-Exact: a discretized sweep-line algorithm
//     over the relaxation values of the three parameters, exact, with
//     monotone pruning (Lemmas 1-2, Theorem 4).
//   - BruteForceK — ADPaRB, the exponential k-subset enumeration.
//   - Baseline2 — relaxes one parameter at a time (Mishra et al. inspired).
//   - Baseline3 — scans R-tree minimum bounding boxes for one holding k
//     strategies.
//
// All solvers operate in a smaller-is-better coordinate space: quality is
// negated so every deployment threshold is an upper bound and a strategy is
// covered iff its point is dominated by the alternative's point. Negation
// (unlike the paper's 1-quality inversion) is exact in floating point, so
// coverage decisions in the solver agree bit-for-bit with the
// strategy.Satisfies predicate on the returned alternative.
package adpar

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"stratrec/internal/geometry"
	"stratrec/internal/strategy"
)

// ErrNotEnoughStrategies is returned when |S| < k: no alternative can cover
// k strategies.
var ErrNotEnoughStrategies = errors.New("adpar: fewer strategies than the cardinality constraint k")

// ErrBadK is returned for k < 1.
var ErrBadK = errors.New("adpar: cardinality constraint k must be at least 1")

// Solution is an alternative deployment recommendation.
type Solution struct {
	// Alternative is the recommended d' in original parameter space
	// (quality back to higher-is-better).
	Alternative strategy.Params
	// Covered lists the IDs of every strategy satisfying d', ascending. It
	// always has at least k elements.
	Covered []int
	// Distance is the l2 distance between d and d' in the normalized space
	// — the objective value of Equation 3.
	Distance float64
}

// Strategies returns the first k covered strategies (the recommendation
// set S_d').
func (s Solution) Strategies(k int) []int {
	if k > len(s.Covered) {
		k = len(s.Covered)
	}
	return s.Covered[:k]
}

// keyPoint maps parameters into the solver's smaller-is-better space:
// (-quality, cost, latency). Negation is a sign-bit flip, exact in IEEE 754,
// so the inverse mapping loses nothing.
func keyPoint(p strategy.Params) geometry.Point3 {
	return geometry.Point3{-p.Quality, p.Cost, p.Latency}
}

// keyParams is the exact inverse of keyPoint.
func keyParams(pt geometry.Point3) strategy.Params {
	return strategy.Params{Quality: -pt[0], Cost: pt[1], Latency: pt[2]}
}

// problem is the shared normalized view all solvers work on.
type problem struct {
	u   geometry.Point3   // deployment bound in the key space
	pts []geometry.Point3 // strategy points in the key space
	// abs[i][dim] = max(u[dim], pts[i][dim]) — the candidate coordinate
	// dimension dim takes if strategy i must be covered. Working with
	// absolute coordinates (rather than relaxation deltas) keeps float
	// comparisons exact: the final alternative's coordinates are exactly
	// strategy coordinates or the original bounds.
	abs [][3]float64
	k   int
}

func newProblem(set strategy.Set, d strategy.Request) (*problem, error) {
	if d.K < 1 {
		return nil, ErrBadK
	}
	if len(set) < d.K {
		return nil, fmt.Errorf("%w: |S|=%d, k=%d", ErrNotEnoughStrategies, len(set), d.K)
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if err := d.Params.Validate(); err != nil {
		return nil, err
	}
	p := &problem{u: keyPoint(d.Params), k: d.K}
	p.pts = make([]geometry.Point3, len(set))
	p.abs = make([][3]float64, len(set))
	for i, s := range set {
		pt := keyPoint(s.Params)
		p.pts[i] = pt
		for dim := 0; dim < geometry.Dims; dim++ {
			p.abs[i][dim] = math.Max(p.u[dim], pt[dim])
		}
	}
	return p, nil
}

// relax returns the relaxation of strategy i in dimension dim: how far the
// bound must move to cover that strategy in that dimension (step 1 of
// ADPaR-Exact).
func (p *problem) relax(i, dim int) float64 { return p.abs[i][dim] - p.u[dim] }

// solutionAt materializes the Solution for alternative bound alt. Because
// the key-space mapping is exact, every strategy point dominated by alt
// satisfies the converted alternative parameters bit-for-bit.
func (p *problem) solutionAt(alt geometry.Point3) Solution {
	return Solution{
		Alternative: keyParams(alt),
		Covered:     geometry.Covered(p.pts, alt),
		Distance:    alt.Dist(p.u),
	}
}

// Exact is ADPaR-Exact. It sweeps the candidate relaxations of one
// dimension in ascending order (the dimension with the fewest distinct
// values, for speed; any choice is exact); for every outer candidate it
// runs an exact 2-D sweep on the remaining dimensions, maintaining the k
// smallest third-dimension coordinates in a max-heap. Every minimal
// covering corner is enumerated, so the returned alternative is optimal
// (Theorem 4). Worst case O(|S|^2 log k); the monotone pruning of Lemma 2
// (candidates are visited in non-decreasing per-dimension relaxation order)
// usually terminates the sweeps far earlier.
//
// Exact is a thin wrapper over the amortized serving engine: it compiles a
// one-shot Index and solves against it. Callers answering many requests
// over the same strategy set should build the Index themselves with
// NewIndex and reuse it, which skips the per-call compilation entirely.
func Exact(set strategy.Set, d strategy.Request) (Solution, error) {
	ix, err := NewIndex(set)
	if err != nil {
		return Solution{}, err
	}
	return ix.Solve(d)
}

// ExactWithOuterDim runs ADPaR-Exact with a fixed outer sweep dimension (0
// quality, 1 cost, 2 latency). Any choice is exact; the ablation benchmarks
// use this to quantify the fewest-distinct-values heuristic Exact applies.
func ExactWithOuterDim(set strategy.Set, d strategy.Request, outer int) (Solution, error) {
	if outer < 0 || outer >= geometry.Dims {
		return Solution{}, fmt.Errorf("adpar: outer dimension %d outside [0,%d)", outer, geometry.Dims)
	}
	ix, err := NewIndex(set)
	if err != nil {
		return Solution{}, err
	}
	return ix.SolveWithOuterDim(d, outer)
}

// distinctDimValues returns the sorted distinct absolute candidate values of
// one dimension, always including the original bound (zero relaxation).
func distinctDimValues(p *problem, dim int) []float64 {
	vals := make([]float64, 0, len(p.abs)+1)
	vals = append(vals, p.u[dim])
	for i := range p.abs {
		vals = append(vals, p.abs[i][dim])
	}
	sort.Float64s(vals)
	out := vals[:1]
	for _, v := range vals[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func otherDims(dim int) (int, int) {
	switch dim {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// boundedMaxHeap keeps the k smallest values offered, largest on top.
type boundedMaxHeap struct {
	k    int
	data []float64
}

func (h *boundedMaxHeap) reset()       { h.data = h.data[:0] }
func (h *boundedMaxHeap) size() int    { return len(h.data) }
func (h *boundedMaxHeap) top() float64 { return h.data[0] }

// offer inserts v if it belongs among the k smallest seen since reset.
func (h *boundedMaxHeap) offer(v float64) {
	if len(h.data) < h.k {
		h.data = append(h.data, v)
		h.up(len(h.data) - 1)
		return
	}
	if v >= h.data[0] {
		return
	}
	h.data[0] = v
	h.down(0)
}

func (h *boundedMaxHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.data[parent] >= h.data[i] {
			return
		}
		h.data[parent], h.data[i] = h.data[i], h.data[parent]
		i = parent
	}
}

func (h *boundedMaxHeap) down(i int) {
	n := len(h.data)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h.data[l] > h.data[largest] {
			largest = l
		}
		if r < n && h.data[r] > h.data[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h.data[i], h.data[largest] = h.data[largest], h.data[i]
		i = largest
	}
}
