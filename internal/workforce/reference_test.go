package workforce

import (
	"container/heap"
	"math"
	"sort"

	"stratrec/internal/linmodel"
	"stratrec/internal/strategy"
)

// This file keeps the container/heap selection that RequirementFor and
// kSmallest used before the typed K-selection replaced it, unchanged but
// for the names, as the reference the differential tests hold the
// production code to: the same Workforce bits and the same Strategies,
// ties included.

// heapKSmallest selects the k smallest finite values of row (with their column
// indices) using a size-k max-heap, the O(|S| log k) selection the paper
// describes. It returns fewer than k pairs when the row has fewer finite
// entries.
func heapKSmallest(row []float64, k int) []colValue {
	h := &maxHeap{}
	for j, w := range row {
		if math.IsInf(w, 1) {
			continue
		}
		if h.Len() < k {
			heap.Push(h, colValue{col: j, value: w})
		} else if w < (*h)[0].value {
			(*h)[0] = colValue{col: j, value: w}
			heap.Fix(h, 0)
		}
	}
	out := make([]colValue, h.Len())
	copy(out, *h)
	sort.Slice(out, func(a, b int) bool {
		if out[a].value != out[b].value {
			return out[a].value < out[b].value
		}
		return out[a].col < out[b].col
	})
	return out
}

// heapRequirementFor computes one request's aggregated requirement directly,
// without materializing a matrix row. It is the streaming variant used by
// the large-scale experiments (a 10^4 x 10^4 batch would otherwise need an
// 800 MB matrix). reqIdx follows the ModelProvider contract: a slice
// position for batch callers, the full-width submission sequence number
// for streaming callers.
func heapRequirementFor(d strategy.Request, reqIdx uint64, set strategy.Set, models ModelProvider, mode Mode) Requirement {
	if d.K < 1 {
		return Requirement{Workforce: linmodel.Infeasible}
	}
	h := &maxHeap{}
	for j := range set {
		w := models.Models(reqIdx, j).Requirement(d.Params)
		if math.IsInf(w, 1) {
			continue
		}
		if h.Len() < d.K {
			heap.Push(h, colValue{col: j, value: w})
		} else if w < (*h)[0].value {
			(*h)[0] = colValue{col: j, value: w}
			heap.Fix(h, 0)
		}
	}
	if h.Len() < d.K {
		return Requirement{Workforce: linmodel.Infeasible}
	}
	picked := make([]colValue, h.Len())
	copy(picked, *h)
	sort.Slice(picked, func(a, b int) bool {
		if picked[a].value != picked[b].value {
			return picked[a].value < picked[b].value
		}
		return picked[a].col < picked[b].col
	})
	out := Requirement{Strategies: make([]int, d.K)}
	for idx, cv := range picked {
		out.Strategies[idx] = cv.col
		if mode == SumCase {
			out.Workforce += cv.value
		} else {
			out.Workforce = cv.value
		}
	}
	return out
}

// maxHeap keeps the k smallest values seen so far, largest on top.
type maxHeap []colValue

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i].value > h[j].value }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(colValue)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
