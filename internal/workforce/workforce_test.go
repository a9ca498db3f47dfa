package workforce

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"stratrec/internal/linmodel"
	"stratrec/internal/strategy"
)

// testModels builds simple per-strategy models: quality rises from beta to
// beta+alpha, latency falls, cost stays cheap.
func testModels(qualityAlphas []float64) PerStrategyModels {
	models := make(PerStrategyModels, len(qualityAlphas))
	for i, a := range qualityAlphas {
		models[i] = linmodel.ParamModels{
			Quality: linmodel.Model{Alpha: a, Beta: 0.3},
			Cost:    linmodel.Model{Alpha: 0.1, Beta: 0.1},
			Latency: linmodel.Model{Alpha: -0.5, Beta: 0.8},
		}
	}
	return models
}

func testSet(n int) strategy.Set {
	set := make(strategy.Set, n)
	for i := range set {
		set[i] = strategy.Strategy{ID: i, Params: strategy.Params{Quality: 0.8, Cost: 0.3, Latency: 0.3}}
	}
	return set
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

func TestComputeMatrix(t *testing.T) {
	set := testSet(3)
	models := testModels([]float64{0.6, 0.4, 0.2})
	reqs := []strategy.Request{
		{ID: "d1", Params: strategy.Params{Quality: 0.6, Cost: 0.9, Latency: 0.9}, K: 2},
	}
	mat, err := Compute(reqs, set, models)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Rows() != 1 || mat.Cols() != 3 {
		t.Fatalf("matrix %dx%d", mat.Rows(), mat.Cols())
	}
	// Quality 0.6 requires (0.6-0.3)/alpha.
	if got := mat.Entry(0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("w[0][0] = %v, want 0.5", got)
	}
	if got := mat.Entry(0, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("w[0][1] = %v, want 0.75", got)
	}
	// alpha=0.2 cannot reach 0.6 from 0.3.
	if got := mat.Entry(0, 2); !math.IsInf(got, 1) {
		t.Errorf("w[0][2] = %v, want Infeasible", got)
	}
	row := mat.Row(0)
	if len(row) != 3 || row[0] != mat.Entry(0, 0) {
		t.Errorf("Row = %v", row)
	}
}

func TestComputeValidation(t *testing.T) {
	set := testSet(2)
	models := testModels([]float64{0.5, 0.5})
	if _, err := Compute(nil, set, models); err == nil {
		t.Error("empty requests accepted")
	}
	if _, err := Compute([]strategy.Request{{K: 1, Params: strategy.Params{Quality: 0.5, Cost: 0.5, Latency: 0.5}}}, strategy.Set{}, models); err == nil {
		t.Error("empty strategy set accepted")
	}
	bad := []strategy.Request{{ID: "d", K: 0, Params: strategy.Params{Quality: 0.5, Cost: 0.5, Latency: 0.5}}}
	if _, err := Compute(bad, set, models); err == nil {
		t.Error("invalid request accepted")
	}
}

func TestAggregateSumAndMax(t *testing.T) {
	set := testSet(4)
	models := testModels([]float64{0.6, 0.3, 0.9, 0.45})
	// Quality threshold 0.6: requirements 0.5, 1.0, 1/3, 2/3.
	reqs := []strategy.Request{
		{ID: "d1", Params: strategy.Params{Quality: 0.6, Cost: 0.9, Latency: 0.9}, K: 2},
	}
	mat, err := Compute(reqs, set, models)
	if err != nil {
		t.Fatal(err)
	}
	sum := mat.Aggregate(0, 2, SumCase)
	if !sum.Feasible() {
		t.Fatal("sum-case infeasible")
	}
	// Two smallest: 1/3 (s3) and 0.5 (s1).
	if math.Abs(sum.Workforce-(1.0/3+0.5)) > 1e-12 {
		t.Errorf("sum workforce = %v", sum.Workforce)
	}
	if len(sum.Strategies) != 2 || sum.Strategies[0] != 2 || sum.Strategies[1] != 0 {
		t.Errorf("sum strategies = %v, want [2 0]", sum.Strategies)
	}

	max := mat.Aggregate(0, 2, MaxCase)
	if math.Abs(max.Workforce-0.5) > 1e-12 {
		t.Errorf("max workforce = %v, want 0.5 (2nd smallest)", max.Workforce)
	}
	if len(max.Strategies) != 2 {
		t.Errorf("max strategies = %v", max.Strategies)
	}
}

func TestAggregateInfeasible(t *testing.T) {
	set := testSet(2)
	models := testModels([]float64{0.6, 0.1}) // second can't reach 0.6
	reqs := []strategy.Request{
		{ID: "d1", Params: strategy.Params{Quality: 0.6, Cost: 0.9, Latency: 0.9}, K: 2},
	}
	mat, err := Compute(reqs, set, models)
	if err != nil {
		t.Fatal(err)
	}
	agg := mat.Aggregate(0, 2, SumCase)
	if agg.Feasible() {
		t.Errorf("aggregate with one infeasible strategy and k=2 should be infeasible, got %v", agg.Workforce)
	}
	if agg.Strategies != nil {
		t.Errorf("infeasible aggregate should carry no strategies, got %v", agg.Strategies)
	}
	// k=1 is fine.
	if agg := mat.Aggregate(0, 1, SumCase); !agg.Feasible() {
		t.Error("k=1 should be feasible")
	}
	// k=0 is rejected.
	if agg := mat.Aggregate(0, 0, SumCase); agg.Feasible() {
		t.Error("k=0 should be infeasible")
	}
}

func TestVector(t *testing.T) {
	set := testSet(3)
	models := testModels([]float64{0.6, 0.4, 0.5})
	reqs := []strategy.Request{
		{ID: "d1", Params: strategy.Params{Quality: 0.5, Cost: 0.9, Latency: 0.9}, K: 1},
		{ID: "d2", Params: strategy.Params{Quality: 0.6, Cost: 0.9, Latency: 0.9}, K: 3},
	}
	mat, err := Compute(reqs, set, models)
	if err != nil {
		t.Fatal(err)
	}
	vec := mat.Vector(reqs, SumCase)
	if len(vec) != 2 {
		t.Fatalf("vector length %d", len(vec))
	}
	if !vec[0].Feasible() || len(vec[0].Strategies) != 1 {
		t.Errorf("vec[0] = %+v", vec[0])
	}
	if !vec[1].Feasible() || len(vec[1].Strategies) != 3 {
		t.Errorf("vec[1] = %+v", vec[1])
	}
}

func TestModeString(t *testing.T) {
	if SumCase.String() != "sum" || MaxCase.String() != "max" {
		t.Error("mode strings")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestFullModelsProvider(t *testing.T) {
	pm := linmodel.ParamModels{Quality: linmodel.Model{Alpha: 1, Beta: 0}}
	fm := FullModels{{pm, pm}, {pm, pm}}
	if got := fm.Models(1, 0); got != pm {
		t.Errorf("FullModels.Models = %+v", got)
	}
}

// referenceKSmallest is the obvious sort-based selection the heap is
// checked against.
func referenceKSmallest(row []float64, k int) []float64 {
	var finite []float64
	for _, v := range row {
		if !math.IsInf(v, 1) {
			finite = append(finite, v)
		}
	}
	sort.Float64s(finite)
	if len(finite) > k {
		finite = finite[:k]
	}
	return finite
}

func TestPropertyHeapSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func() bool {
		n := 1 + rng.Intn(40)
		row := make([]float64, n)
		for i := range row {
			if rng.Float64() < 0.2 {
				row[i] = linmodel.Infeasible
			} else {
				row[i] = rng.Float64()
			}
		}
		k := 1 + rng.Intn(n+2)
		got := kSmallest(row, k)
		want := referenceKSmallest(row, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].value != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertySumAtLeastMax(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	set := testSet(8)
	f := func() bool {
		alphas := make([]float64, 8)
		for i := range alphas {
			alphas[i] = rng.Float64()
		}
		models := testModels(alphas)
		reqs := []strategy.Request{{
			ID:     "d",
			Params: strategy.Params{Quality: 0.3 + rng.Float64()*0.6, Cost: 0.9, Latency: 0.9},
			K:      1 + rng.Intn(8),
		}}
		mat, err := Compute(reqs, set, models)
		if err != nil {
			return false
		}
		sum := mat.Aggregate(0, reqs[0].K, SumCase)
		max := mat.Aggregate(0, reqs[0].K, MaxCase)
		if sum.Feasible() != max.Feasible() {
			return false
		}
		if !sum.Feasible() {
			return true
		}
		// Sum over k values >= their max; equal when k == 1.
		if sum.Workforce < max.Workforce-1e-12 {
			return false
		}
		if reqs[0].K == 1 && math.Abs(sum.Workforce-max.Workforce) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
