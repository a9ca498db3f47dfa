package adpar

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"stratrec/internal/geometry"
	"stratrec/internal/strategy"
)

// oracleExact replays the original single-pass ADPaR-Exact sweep (retained
// as exactWithOuter) including its fewest-distinct-values outer-dimension
// choice. The engine tests require Index.Solve to reproduce its solutions
// bit for bit.
func oracleExact(set strategy.Set, d strategy.Request) (Solution, error) {
	p, err := newProblem(set, d)
	if err != nil {
		return Solution{}, err
	}
	outer := 0
	outerCands := distinctDimValues(p, 0)
	for dim := 1; dim < geometry.Dims; dim++ {
		c := distinctDimValues(p, dim)
		if len(c) < len(outerCands) {
			outer, outerCands = dim, c
		}
	}
	return exactWithOuter(p, outer, outerCands)
}

func oracleExactWithOuterDim(set strategy.Set, d strategy.Request, outer int) (Solution, error) {
	p, err := newProblem(set, d)
	if err != nil {
		return Solution{}, err
	}
	return exactWithOuter(p, outer, distinctDimValues(p, outer))
}

// exactWithOuter is the original single-pass sweep Exact was built on. It is
// kept verbatim as the reference oracle: the Index equivalence tests replay
// randomized instances through it and require Index.Solve (sequential and
// parallel) to reproduce its solutions bit for bit.
func exactWithOuter(p *problem, outer int, outerCands []float64) (Solution, error) {
	n := len(p.pts)
	dimA, dimB := otherDims(outer)

	// Pre-sort strategies by the inner sweep dimension A.
	orderA := make([]int, n)
	for i := range orderA {
		orderA[i] = i
	}
	sort.Slice(orderA, func(x, y int) bool {
		return p.abs[orderA[x]][dimA] < p.abs[orderA[y]][dimA]
	})

	best2 := math.Inf(1)
	var bestAlt geometry.Point3
	heap := newBoundedMaxHeap(p.k)

	for _, cAbs := range outerCands {
		rOuter := cAbs - p.u[outer]
		if rOuter*rOuter >= best2 {
			break // Lemma 2: outer candidates ascend; no better corner remains.
		}
		heap.reset()
		for _, i := range orderA {
			if p.abs[i][outer] > cAbs {
				continue // not admitted at this outer relaxation
			}
			aAbs := p.abs[i][dimA]
			rA := aAbs - p.u[dimA]
			if rOuter*rOuter+rA*rA >= best2 {
				break // all later corners for this outer candidate are worse
			}
			heap.offer(p.abs[i][dimB])
			if heap.size() == p.k {
				bAbs := heap.top()
				rB := bAbs - p.u[dimB]
				obj2 := rOuter*rOuter + rA*rA + rB*rB
				if obj2 < best2 {
					best2 = obj2
					bestAlt[outer] = cAbs
					bestAlt[dimA] = aAbs
					bestAlt[dimB] = bAbs
				}
			}
		}
	}
	if math.IsInf(best2, 1) {
		// Unreachable when |S| >= k: the all-max corner always covers k.
		return Solution{}, fmt.Errorf("adpar: internal error: no covering corner found")
	}
	return p.solutionAt(bestAlt), nil
}

func newBoundedMaxHeap(k int) *boundedMaxHeap {
	return &boundedMaxHeap{k: k, data: make([]float64, 0, k)}
}

// sameSolution requires exact equality: coordinates, distance and covered
// set must match bit for bit, not just within a tolerance.
func sameSolution(t *testing.T, label string, got, want Solution) {
	t.Helper()
	if got.Alternative != want.Alternative {
		t.Errorf("%s: alternative = %+v, want %+v", label, got.Alternative, want.Alternative)
	}
	if got.Distance != want.Distance {
		t.Errorf("%s: distance = %v, want %v", label, got.Distance, want.Distance)
	}
	if len(got.Covered) != len(want.Covered) {
		t.Fatalf("%s: covered = %v, want %v", label, got.Covered, want.Covered)
	}
	for i := range got.Covered {
		if got.Covered[i] != want.Covered[i] {
			t.Fatalf("%s: covered = %v, want %v", label, got.Covered, want.Covered)
		}
	}
}

// gridInstance draws coordinates from a coarse grid so duplicate values,
// clamped relaxations and exact objective ties — the tie-breaking paths of
// the engine — occur constantly.
func gridInstance(rng *rand.Rand, maxN int) (strategy.Set, strategy.Request) {
	n := 1 + rng.Intn(maxN)
	grid := func() float64 { return float64(rng.Intn(11)) / 10 }
	set := make(strategy.Set, n)
	for i := range set {
		set[i] = strategy.Strategy{ID: i, Params: strategy.Params{
			Quality: grid(), Cost: grid(), Latency: grid(),
		}}
	}
	d := strategy.Request{
		ID:     "d",
		Params: strategy.Params{Quality: grid(), Cost: grid(), Latency: grid()},
		K:      1 + rng.Intn(n),
	}
	return set, d
}

// TestIndexSolveMatchesOracle is the central engine property: over
// continuous and duplicate-heavy randomized instances, sequential
// Index.Solve, forced-parallel SolveParallel and the per-dimension
// SolveWithOuterDim all reproduce the original sweep bit for bit.
func TestIndexSolveMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		gen  func(*rand.Rand, int) (strategy.Set, strategy.Request)
		seed int64
	}{
		{"continuous", randomInstance, 71},
		{"grid", gridInstance, 72},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			for trial := 0; trial < 300; trial++ {
				set, d := tc.gen(rng, 40)
				want, err := oracleExact(set, d)
				if err != nil {
					t.Fatalf("trial %d: oracle: %v", trial, err)
				}
				ix, err := NewIndex(set)
				if err != nil {
					t.Fatalf("trial %d: NewIndex: %v", trial, err)
				}
				got, err := ix.Solve(d)
				if err != nil {
					t.Fatalf("trial %d: Solve: %v", trial, err)
				}
				sameSolution(t, "Solve", got, want)

				par, err := ix.SolveParallel(d, 4)
				if err != nil {
					t.Fatalf("trial %d: SolveParallel: %v", trial, err)
				}
				sameSolution(t, "SolveParallel", par, want)

				for dim := 0; dim < geometry.Dims; dim++ {
					wantDim, err := oracleExactWithOuterDim(set, d, dim)
					if err != nil {
						t.Fatalf("trial %d: oracle dim %d: %v", trial, dim, err)
					}
					gotDim, err := ix.SolveWithOuterDim(d, dim)
					if err != nil {
						t.Fatalf("trial %d: SolveWithOuterDim(%d): %v", trial, dim, err)
					}
					sameSolution(t, "SolveWithOuterDim", gotDim, wantDim)
				}
			}
		})
	}
}

// TestIndexSolveMatchesOracleLarge exercises the admission-skip and
// candidate-skip fast paths on an instance big enough for them to matter,
// with a parallel sweep wider than the candidate pool supports.
func TestIndexSolveMatchesOracleLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	set := make(strategy.Set, 3000)
	for i := range set {
		set[i] = strategy.Strategy{ID: i, Params: strategy.Params{
			Quality: rng.Float64(), Cost: rng.Float64(), Latency: rng.Float64(),
		}}
	}
	ix, err := NewIndex(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 25, 400, 3000} {
		d := strategy.Request{ID: "d", Params: strategy.Params{Quality: 0.9, Cost: 0.1, Latency: 0.15}, K: k}
		want, err := oracleExact(set, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Solve(d)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, "Solve", got, want)
		par, err := ix.SolveParallel(d, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, "SolveParallel", par, want)
	}
}

// TestIndexPaperExamples pins the engine to the worked examples of Sections
// 2.3 and 4 through a single shared index.
func TestIndexPaperExamples(t *testing.T) {
	set := strategy.PaperExampleStrategies()
	ix, err := NewIndex(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range strategy.PaperExampleRequests() {
		want, err := oracleExact(set, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Solve(d)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, d.ID, got, want)
		checkCovers(t, set, got, d.K)
	}
}

// TestIndexValidation mirrors the solver input contract on the index entry
// points.
func TestIndexValidation(t *testing.T) {
	if _, err := NewIndex(strategy.Set{}); err == nil {
		t.Error("empty set accepted")
	}
	set := strategy.PaperExampleStrategies()
	ix, err := NewIndex(set)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(set) {
		t.Errorf("Len = %d, want %d", ix.Len(), len(set))
	}
	if _, err := ix.Solve(strategy.Request{Params: set[0].Params, K: 0}); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := ix.Solve(strategy.Request{Params: set[0].Params, K: 5}); !errors.Is(err, ErrNotEnoughStrategies) {
		t.Errorf("k>|S| error = %v", err)
	}
	if _, err := ix.Solve(strategy.Request{Params: strategy.Params{Quality: 2}, K: 1}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := ix.SolveWithOuterDim(strategy.PaperExampleRequests()[0], -1); err == nil {
		t.Error("negative dimension accepted")
	}
	if _, err := ix.SolveWithOuterDim(strategy.PaperExampleRequests()[0], geometry.Dims); err == nil {
		t.Errorf("dimension %d accepted", geometry.Dims)
	}
}

// TestIndexConcurrentSolve hammers one shared index from many goroutines —
// mixing sequential and forced-parallel solves — and checks every result
// against the oracle. Run under -race this doubles as the data-race proof
// for the scratch pool and the shared-bound plumbing.
func TestIndexConcurrentSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	set, _ := randomInstance(rng, 60)
	for len(set) < 8 {
		set, _ = randomInstance(rng, 60)
	}
	ix, err := NewIndex(set)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		d    strategy.Request
		want Solution
	}
	jobs := make([]job, 24)
	for i := range jobs {
		_, d := randomInstance(rng, len(set))
		d.K = 1 + rng.Intn(len(set))
		want, err := oracleExact(set, d)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{d: d, want: want}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)*2)
	for i, j := range jobs {
		wg.Add(2)
		go func(j job) {
			defer wg.Done()
			got, err := ix.Solve(j.d)
			if err != nil {
				errs <- err
				return
			}
			if got.Alternative != j.want.Alternative || got.Distance != j.want.Distance {
				errs <- errors.New("concurrent Solve diverged from oracle")
			}
		}(j)
		go func(i int, j job) {
			defer wg.Done()
			got, err := ix.SolveParallel(j.d, 2+i%3)
			if err != nil {
				errs <- err
				return
			}
			if got.Alternative != j.want.Alternative || got.Distance != j.want.Distance {
				errs <- errors.New("concurrent SolveParallel diverged from oracle")
			}
		}(i, j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
