// Package workforce implements the Workforce Requirement Computation of
// Section 3.2: the m x |S| matrix W of per-(deployment, strategy) workforce
// requirements, and its aggregation into the per-deployment requirement
// vector under the paper's sum-case and max-case semantics.
package workforce

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"stratrec/internal/linmodel"
	"stratrec/internal/strategy"
)

// ModelProvider supplies the linear models of one (request, strategy)
// combination.
//
// The contract on reqIdx: stratIdx always refers to a position in the
// strategy set, but what reqIdx identifies depends on the caller.
//
//   - Batch callers (Compute, RequirementFor over a fixed request slice)
//     pass the request's position in that slice.
//   - Streaming callers (stream.Manager) pass the request's monotonic
//     submission sequence number: unique across the manager's lifetime,
//     never reused after a revocation, and preserved across crash
//     recovery. A provider with per-request rows (FullModels) must
//     therefore be provisioned for the total number of submissions, not
//     the size of the live pool — in exchange, two distinct live requests
//     can never observe the same row, and a request re-admitted during
//     recovery sees exactly the row of its original admission.
//
// reqIdx is uint64 precisely because of the streaming caller: the
// submission counter is monotonic over the manager's whole lifetime
// (recovered logs included), so narrowing it to int would alias rows on
// 32-bit platforms once the counter passes MaxInt32. Providers indexing a
// slice by reqIdx (FullModels) are expected to be provisioned densely from
// 0 and may convert internally.
//
// Providers that ignore reqIdx (PerStrategyModels, the common case) are
// unaffected by the distinction.
type ModelProvider interface {
	Models(reqIdx uint64, stratIdx int) linmodel.ParamModels
}

// PerStrategyModels is the common case where models depend only on the
// strategy (all requests in a batch are of the same task type, as in the
// paper's running example).
type PerStrategyModels []linmodel.ParamModels

// Models returns the models of strategy stratIdx regardless of the request.
func (p PerStrategyModels) Models(_ uint64, stratIdx int) linmodel.ParamModels { return p[stratIdx] }

// FullModels is a complete per-(request, strategy) model matrix. Rows are
// indexed by reqIdx, so under a stream.Manager the matrix must have one
// row per submission (see the ModelProvider contract), not per live
// request.
type FullModels [][]linmodel.ParamModels

// Models returns the models at [reqIdx][stratIdx].
func (f FullModels) Models(reqIdx uint64, stratIdx int) linmodel.ParamModels {
	return f[reqIdx][stratIdx]
}

// Matrix is the workforce requirement matrix W: Entry(i, j) is the minimum
// workforce needed to deploy request i with strategy j, or
// linmodel.Infeasible when some threshold is unreachable.
type Matrix struct {
	m, s    int
	entries []float64 // row-major
}

// Compute builds the matrix for the given requests and strategies (step 1 of
// Section 3.2). Running time O(m * |S|), each cell in constant time.
func Compute(requests []strategy.Request, set strategy.Set, models ModelProvider) (*Matrix, error) {
	if len(requests) == 0 {
		return nil, fmt.Errorf("workforce: no requests")
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	mat := &Matrix{m: len(requests), s: len(set), entries: make([]float64, len(requests)*len(set))}
	for i, d := range requests {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("workforce: request %d: %w", i, err)
		}
		for j := range set {
			mat.entries[i*mat.s+j] = models.Models(uint64(i), j).Requirement(d.Params)
		}
	}
	return mat, nil
}

// Rows returns the number of requests m.
func (mat *Matrix) Rows() int { return mat.m }

// Cols returns the number of strategies |S|.
func (mat *Matrix) Cols() int { return mat.s }

// Entry returns w_ij.
func (mat *Matrix) Entry(i, j int) float64 { return mat.entries[i*mat.s+j] }

// Row returns a copy of row i.
func (mat *Matrix) Row(i int) []float64 {
	row := make([]float64, mat.s)
	copy(row, mat.entries[i*mat.s:(i+1)*mat.s])
	return row
}

// Mode selects how the k per-strategy requirements of one request aggregate
// into a single requirement (step 2 of Section 3.2).
type Mode int

const (
	// SumCase assumes the requester deploys with all k recommended
	// strategies: the requirement is the sum of the k smallest w values.
	SumCase Mode = iota
	// MaxCase assumes the requester deploys with only one of the k
	// recommended strategies: the requirement is the k-th smallest w.
	MaxCase
)

func (m Mode) String() string {
	switch m {
	case SumCase:
		return "sum"
	case MaxCase:
		return "max"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Requirement is the aggregated workforce requirement of one request
// together with the k strategies that realize it.
type Requirement struct {
	// Workforce is the aggregated requirement, or linmodel.Infeasible when
	// fewer than k strategies have finite requirements.
	Workforce float64
	// Strategies holds the IDs of the k selected strategies in ascending
	// requirement order; nil when infeasible.
	Strategies []int
}

// Feasible reports whether k strategies were found.
func (r Requirement) Feasible() bool { return !math.IsInf(r.Workforce, 1) }

// kSmallest selects the k smallest finite values of row with their column
// indices, in ascending (value, col) order, through the size-k max-heap of
// offer: the O(|S| log k) selection the paper describes. It returns fewer
// than k pairs when the row has fewer finite entries.
func kSmallest(row []float64, k int) []colValue {
	h := make([]colValue, 0, min(k, len(row)))
	for j, w := range row {
		h = offer(h, k, j, w)
	}
	slices.SortFunc(h, compareColValue)
	return h
}

// Aggregate computes the requirement of row i with cardinality k under the
// given mode.
func (mat *Matrix) Aggregate(i, k int, mode Mode) Requirement {
	if k < 1 {
		return Requirement{Workforce: linmodel.Infeasible}
	}
	return aggregate(kSmallest(mat.entries[i*mat.s:(i+1)*mat.s], k), k, mode)
}

// Vector computes the aggregated requirement of every request (the vector
// W-arrow of Section 3.2), using each request's own cardinality constraint.
// Overall running time O(m |S| log k).
func (mat *Matrix) Vector(requests []strategy.Request, mode Mode) []Requirement {
	out := make([]Requirement, mat.m)
	for i := range out {
		out[i] = mat.Aggregate(i, requests[i].K, mode)
	}
	return out
}

// RequirementFor computes one request's aggregated requirement directly,
// without materializing a matrix row. It is the streaming variant used by
// the large-scale experiments (a 10^4 x 10^4 batch would otherwise need an
// 800 MB matrix) and by every admission and recovery in the server, where
// it is the one pass over the catalog an admission makes. reqIdx follows
// the ModelProvider contract: a slice position for batch callers, the
// full-width submission sequence number for streaming callers.
//
// Its answer is bit-identical to a matrix row's Aggregate, ties included.
// The scan calls the fused linmodel kernel once per strategy, indexing a
// PerStrategyModels provider directly rather than through the interface,
// and keeps the K smallest in a heap on the stack when K is at most
// selectStack. The one allocation left is the Strategies slice of the
// answer, which stream.Manager keeps.
func RequirementFor(d strategy.Request, reqIdx uint64, set strategy.Set, models ModelProvider, mode Mode) Requirement {
	// More than len(set) strategies can never be found; returning early
	// also bounds the selection buffer by the catalog, not by the request.
	if d.K < 1 || d.K > len(set) {
		return Requirement{Workforce: linmodel.Infeasible}
	}
	var stack [selectStack]colValue
	h := stack[:0]
	if d.K > len(stack) {
		h = make([]colValue, 0, d.K)
	}
	// The common provider is indexed in place: the interface call and the
	// copy of its result are a third of the scan at 200 strategies.
	if per, ok := models.(PerStrategyModels); ok {
		for j := range set {
			h = offer(h, d.K, j, per[j].Requirement(d.Params))
		}
	} else {
		for j := range set {
			h = offer(h, d.K, j, models.Models(reqIdx, j).Requirement(d.Params))
		}
	}
	slices.SortFunc(h, compareColValue)
	return aggregate(h, d.K, mode)
}

// aggregate folds picked, the selection in ascending (value, col) order,
// into the requirement of cardinality k: Infeasible when it holds fewer
// than k pairs.
func aggregate(picked []colValue, k int, mode Mode) Requirement {
	if len(picked) < k {
		return Requirement{Workforce: linmodel.Infeasible}
	}
	out := Requirement{Strategies: make([]int, k)}
	for idx, cv := range picked {
		out.Strategies[idx] = cv.col
		if mode == SumCase {
			out.Workforce += cv.value
		} else {
			out.Workforce = cv.value // ascending order: ends at the k-th smallest
		}
	}
	return out
}

type colValue struct {
	col   int
	value float64
}

// selectStack is the largest K whose selection heap RequirementFor keeps
// on its stack.
const selectStack = 16

// offer feeds the candidate (col, w) to h, the K-selection: a max-heap by
// value of the k smallest finite candidates seen so far, with cap(h) >= k.
// It sifts exactly as container/heap's Push and Fix(h, 0) do on a heap
// whose Less is "value greater", so among tied values the same candidates
// survive as under the heap-based selection this replaced.
//
//lint:allocfree
func offer(h []colValue, k, col int, w float64) []colValue {
	if math.IsInf(w, 1) {
		return h
	}
	if n := len(h); n < k {
		h = h[:n+1]
		h[n] = colValue{col: col, value: w}
		for j := n; j > 0; {
			i := (j - 1) / 2
			if !(h[j].value > h[i].value) {
				break
			}
			h[i], h[j] = h[j], h[i]
			j = i
		}
		return h
	}
	if !(w < h[0].value) {
		return h
	}
	h[0] = colValue{col: col, value: w}
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if j+1 < len(h) && h[j+1].value > h[j].value {
			j++
		}
		if !(h[j].value > h[i].value) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h
}

// compareColValue orders a finished selection by (value, col). The
// selection sorts with slices.SortFunc, which insertion-sorts up to 12
// pairs and stays O(K log K) beyond, where an insertion sort of the
// largest-first heap would be quadratic in K.
func compareColValue(a, b colValue) int {
	if c := cmp.Compare(a.value, b.value); c != 0 {
		return c
	}
	return cmp.Compare(a.col, b.col)
}
