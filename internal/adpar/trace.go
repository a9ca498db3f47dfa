package adpar

import (
	"sort"

	"stratrec/internal/geometry"
	"stratrec/internal/strategy"
)

// This file reconstructs the intermediate state the paper walks through in
// Tables 2-5 while explaining ADPaR-Exact on the running example: the
// per-parameter relaxation values (step 1 / Table 3), the globally sorted
// relaxation list R with its strategy-index list I and parameter list D
// (step 2 / Table 4), the three per-dimension sweep-line orders (step 3 /
// Table 5), and the boolean coverage matrix M (Table 2).
//
// Note (pinned by TestTracePaperD2): the paper's printed Table 3 swaps the
// Cost and Quality columns relative to the Table 1 inputs, and Table 2
// shows a partially updated matrix; Trace reproduces the corrected values.

// RelaxEntry is one element of the sorted relaxation list: R[j] is the
// value, I[j] the strategy index, D[j] the parameter dimension.
type RelaxEntry struct {
	Value    float64 // relaxation amount R[j]
	Strategy int     // strategy index I[j] (0-based)
	Dim      int     // parameter D[j]: 0 quality, 1 cost, 2 latency
}

// SweepEntry is one strategy's position on a sweep line: the strategy index
// and its coordinates in the two orthogonal dimensions.
type SweepEntry struct {
	Strategy int
	Relax    float64    // relaxation in the sweep dimension
	Other    [2]float64 // raw coordinates in the other two dims
	OtherDim [2]int     // which dims Other refers to
}

// Trace is the full intermediate state of ADPaR-Exact on one instance.
type Trace struct {
	// Relax is the step-1 relaxation matrix: Relax[i][dim] is how far the
	// deployment bound must move in dim to cover strategy i (Table 3).
	Relax [][geometry.Dims]float64
	// R is the step-2 sorted relaxation list with strategy and parameter
	// bookkeeping (Table 4).
	R []RelaxEntry
	// Sweeps holds the step-3 sweep-line orders: Sweeps[dim] lists
	// strategies in ascending relaxation of dim, with their raw coordinates
	// on the orthogonal plane (Table 5).
	Sweeps [geometry.Dims][]SweepEntry
	// MInitial is the matrix M right after initialization: entries are true
	// where the corresponding relaxation is zero, i.e. the parameter is
	// already covered by the original bounds (Table 2).
	MInitial [][geometry.Dims]bool
	// MFinal is M at termination: entries are true where the parameter is
	// covered by the returned alternative d'.
	MFinal [][geometry.Dims]bool
	// Solution is the exact solution the sweep terminates with.
	Solution Solution
}

// BuildTrace runs ADPaR-Exact on (set, d) and reconstructs the worked
// example state of Tables 2-5.
func BuildTrace(set strategy.Set, d strategy.Request) (Trace, error) {
	p, err := newProblem(set, d)
	if err != nil {
		return Trace{}, err
	}
	sol, err := Exact(set, d)
	if err != nil {
		return Trace{}, err
	}
	n := len(p.pts)
	tr := Trace{Solution: sol}

	tr.Relax = make([][geometry.Dims]float64, n)
	tr.MInitial = make([][geometry.Dims]bool, n)
	tr.MFinal = make([][geometry.Dims]bool, n)
	altPoint := keyPoint(sol.Alternative)
	for i := 0; i < n; i++ {
		for dim := 0; dim < geometry.Dims; dim++ {
			tr.Relax[i][dim] = p.relax(i, dim)
			tr.MInitial[i][dim] = tr.Relax[i][dim] == 0
			tr.MFinal[i][dim] = p.pts[i][dim] <= altPoint[dim]
		}
	}

	tr.R = make([]RelaxEntry, 0, n*geometry.Dims)
	for i := 0; i < n; i++ {
		for dim := 0; dim < geometry.Dims; dim++ {
			tr.R = append(tr.R, RelaxEntry{Value: tr.Relax[i][dim], Strategy: i, Dim: dim})
		}
	}
	sort.SliceStable(tr.R, func(a, b int) bool { return tr.R[a].Value < tr.R[b].Value })

	for dim := 0; dim < geometry.Dims; dim++ {
		oa, ob := otherDims(dim)
		entries := make([]SweepEntry, n)
		for i := 0; i < n; i++ {
			entries[i] = SweepEntry{
				Strategy: i,
				Relax:    tr.Relax[i][dim],
				Other:    [2]float64{displayValue(oa, p.pts[i][oa]), displayValue(ob, p.pts[i][ob])},
				OtherDim: [2]int{oa, ob},
			}
		}
		sort.SliceStable(entries, func(a, b int) bool { return entries[a].Relax < entries[b].Relax })
		tr.Sweeps[dim] = entries
	}
	return tr, nil
}

// displayValue converts a key-space coordinate back to the original
// parameter value (quality is negated in the key space).
func displayValue(dim int, v float64) float64 {
	if dim == 0 {
		return -v
	}
	return v
}
