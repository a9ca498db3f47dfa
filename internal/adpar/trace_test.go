package adpar

import (
	"math"
	"testing"

	"stratrec/internal/strategy"
)

// TestTracePaperD2 reconstructs Tables 2-5 for the running example's d2
// with corrected values: the paper's printed Table 3 swaps its Cost and
// Quality columns, and its Table 2 shows a partially updated matrix
// (README.md, "Paper fidelity").
func TestTracePaperD2(t *testing.T) {
	set := strategy.PaperExampleStrategies()
	d := strategy.PaperExampleRequests()[1] // d2 = (0.8, 0.2, 0.28), k=3
	tr, err := BuildTrace(set, d)
	if err != nil {
		t.Fatal(err)
	}

	// Table 3 corrected: relaxations per strategy (quality, cost, latency).
	want := [][3]float64{
		{0.30, 0.05, 0}, // s1: quality 0.5 needs 0.3, cost 0.25 needs 0.05
		{0.05, 0.13, 0}, // s2
		{0.00, 0.30, 0}, // s3
		{0.00, 0.38, 0}, // s4
	}
	for i, w := range want {
		for dim := 0; dim < 3; dim++ {
			if math.Abs(tr.Relax[i][dim]-w[dim]) > 1e-9 {
				t.Errorf("Relax[s%d][%d] = %v, want %v", i+1, dim, tr.Relax[i][dim], w[dim])
			}
		}
	}

	// Table 4: 12 relaxations sorted ascending; the first six are zeros
	// (all four latencies plus the two zero quality relaxations).
	if len(tr.R) != 12 {
		t.Fatalf("len(R) = %d, want 12", len(tr.R))
	}
	for j := 0; j < 6; j++ {
		if tr.R[j].Value != 0 {
			t.Errorf("R[%d] = %v, want 0", j, tr.R[j].Value)
		}
	}
	for j := 1; j < len(tr.R); j++ {
		if tr.R[j].Value < tr.R[j-1].Value {
			t.Errorf("R not sorted at %d: %v < %v", j, tr.R[j].Value, tr.R[j-1].Value)
		}
	}
	// The largest relaxation is s4's cost 0.38.
	last := tr.R[len(tr.R)-1]
	if math.Abs(last.Value-0.38) > 1e-9 || last.Strategy != 3 || last.Dim != 1 {
		t.Errorf("R[11] = %+v, want s4 cost 0.38", last)
	}

	// Table 2 (initial M): latency is covered for every strategy; quality
	// is covered for s3 and s4 only; cost for none.
	for i := 0; i < 4; i++ {
		if !tr.MInitial[i][2] {
			t.Errorf("MInitial[s%d][latency] = false", i+1)
		}
		if tr.MInitial[i][1] {
			t.Errorf("MInitial[s%d][cost] = true", i+1)
		}
	}
	if tr.MInitial[0][0] || tr.MInitial[1][0] || !tr.MInitial[2][0] || !tr.MInitial[3][0] {
		t.Errorf("MInitial quality column = %v %v %v %v",
			tr.MInitial[0][0], tr.MInitial[1][0], tr.MInitial[2][0], tr.MInitial[3][0])
	}

	// Table 5: each sweep order is ascending in its own relaxation.
	for dim := 0; dim < 3; dim++ {
		sw := tr.Sweeps[dim]
		if len(sw) != 4 {
			t.Fatalf("sweep %d has %d entries", dim, len(sw))
		}
		for j := 1; j < len(sw); j++ {
			if sw[j].Relax < sw[j-1].Relax {
				t.Errorf("sweep %d not sorted", dim)
			}
		}
	}
	// Quality sweep order: s3, s4 (0), then s2 (0.05), then s1 (0.3).
	qOrder := []int{2, 3, 1, 0}
	for j, want := range qOrder {
		if tr.Sweeps[0][j].Strategy != want {
			t.Errorf("quality sweep[%d] = s%d, want s%d", j, tr.Sweeps[0][j].Strategy+1, want+1)
		}
	}
	// Sweep entries expose the raw coordinates on the orthogonal plane:
	// for the quality sweep, s3's (cost, latency) = (0.5, 0.14).
	e := tr.Sweeps[0][0]
	if e.OtherDim != [2]int{1, 2} || math.Abs(e.Other[0]-0.5) > 1e-12 || math.Abs(e.Other[1]-0.14) > 1e-12 {
		t.Errorf("quality sweep first entry = %+v", e)
	}

	// Final M marks the parameters covered by the returned alternative
	// (0.75, 0.58, 0.28): everything except s1's quality.
	for i := 0; i < 4; i++ {
		for dim := 0; dim < 3; dim++ {
			want := !(i == 0 && dim == 0)
			if tr.MFinal[i][dim] != want {
				t.Errorf("MFinal[s%d][%d] = %v, want %v", i+1, dim, tr.MFinal[i][dim], want)
			}
		}
	}

	// The trace carries the exact solution.
	if math.Abs(tr.Solution.Distance-math.Sqrt(0.05*0.05+0.38*0.38)) > 1e-9 {
		t.Errorf("trace solution distance = %v", tr.Solution.Distance)
	}
}

func TestTraceValidation(t *testing.T) {
	set := strategy.PaperExampleStrategies()
	if _, err := BuildTrace(set, strategy.Request{Params: set[0].Params, K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := BuildTrace(set, strategy.Request{Params: set[0].Params, K: 99}); err == nil {
		t.Error("k>|S| accepted")
	}
}
