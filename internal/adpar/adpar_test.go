package adpar

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stratrec/internal/geometry"
	"stratrec/internal/strategy"
)

// paperD1 and paperD2 are the worked examples of Sections 2.3 and 4.
func paperD1() strategy.Request { return strategy.PaperExampleRequests()[0] }
func paperD2() strategy.Request { return strategy.PaperExampleRequests()[1] }

func checkCovers(t *testing.T, set strategy.Set, sol Solution, k int) {
	t.Helper()
	if len(sol.Covered) < k {
		t.Fatalf("solution covers %d < k=%d strategies", len(sol.Covered), k)
	}
	for _, id := range sol.Covered {
		if !strategy.Satisfies(set[id].Params, sol.Alternative) {
			t.Errorf("covered strategy %d does not satisfy alternative %+v", id, sol.Alternative)
		}
	}
}

// TestExactPaperExampleD1 reproduces the Section 2.3 example: for
// d1 = (0.4, 0.17, 0.28) the alternative is (0.4, 0.5, 0.28) with
// {s1, s2, s3}.
func TestExactPaperExampleD1(t *testing.T) {
	set := strategy.PaperExampleStrategies()
	sol, err := Exact(set, paperD1())
	if err != nil {
		t.Fatal(err)
	}
	want := strategy.Params{Quality: 0.4, Cost: 0.5, Latency: 0.28}
	if math.Abs(sol.Alternative.Quality-want.Quality) > 1e-12 ||
		math.Abs(sol.Alternative.Cost-want.Cost) > 1e-12 ||
		math.Abs(sol.Alternative.Latency-want.Latency) > 1e-12 {
		t.Errorf("alternative = %+v, want %+v", sol.Alternative, want)
	}
	if len(sol.Covered) != 3 || sol.Covered[0] != 0 || sol.Covered[1] != 1 || sol.Covered[2] != 2 {
		t.Errorf("covered = %v, want [0 1 2] (s1, s2, s3)", sol.Covered)
	}
	if math.Abs(sol.Distance-0.33) > 1e-12 {
		t.Errorf("distance = %v, want 0.33 (cost relaxation only)", sol.Distance)
	}
	checkCovers(t, set, sol, 3)
}

// TestExactPaperExampleD2Errata: the paper claims the d2 alternative is
// (0.75, 0.5, 0.28) covering {s1, s2, s3}, but that point does not cover s1
// (quality 0.5 < 0.75). The true optimum is (0.75, 0.58, 0.28) covering
// {s2, s3, s4} at distance sqrt(0.05^2 + 0.38^2). README.md lists this
// erratum under "Paper fidelity".
func TestExactPaperExampleD2Errata(t *testing.T) {
	set := strategy.PaperExampleStrategies()

	// The paper's claimed point covers only two strategies.
	claimed := strategy.Params{Quality: 0.75, Cost: 0.5, Latency: 0.28}
	covered := 0
	for _, s := range set {
		if strategy.Satisfies(s.Params, claimed) {
			covered++
		}
	}
	if covered != 2 {
		t.Fatalf("paper's claimed point covers %d strategies (expected the errata's 2)", covered)
	}

	sol, err := Exact(set, paperD2())
	if err != nil {
		t.Fatal(err)
	}
	want := strategy.Params{Quality: 0.75, Cost: 0.58, Latency: 0.28}
	if math.Abs(sol.Alternative.Quality-want.Quality) > 1e-12 ||
		math.Abs(sol.Alternative.Cost-want.Cost) > 1e-12 ||
		math.Abs(sol.Alternative.Latency-want.Latency) > 1e-12 {
		t.Errorf("alternative = %+v, want %+v", sol.Alternative, want)
	}
	if len(sol.Covered) != 3 || sol.Covered[0] != 1 || sol.Covered[1] != 2 || sol.Covered[2] != 3 {
		t.Errorf("covered = %v, want [1 2 3] (s2, s3, s4)", sol.Covered)
	}
	wantDist := math.Sqrt(0.05*0.05 + 0.38*0.38)
	if math.Abs(sol.Distance-wantDist) > 1e-9 {
		t.Errorf("distance = %v, want %v", sol.Distance, wantDist)
	}
	checkCovers(t, set, sol, 3)
}

func TestExactAlreadySatisfiable(t *testing.T) {
	set := strategy.PaperExampleStrategies()
	d := strategy.PaperExampleRequests()[2] // d3 is satisfied by s2, s3, s4
	sol, err := Exact(set, d)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Distance != 0 {
		t.Errorf("distance = %v, want 0 for satisfiable request", sol.Distance)
	}
	if sol.Alternative != d.Params {
		t.Errorf("alternative = %+v, want the original %+v", sol.Alternative, d.Params)
	}
	checkCovers(t, set, sol, 3)
}

func TestExactKEqualsSetSize(t *testing.T) {
	set := strategy.PaperExampleStrategies()
	d := strategy.Request{ID: "tight", Params: strategy.Params{Quality: 0.9, Cost: 0.1, Latency: 0.1}, K: 4}
	sol, err := Exact(set, d)
	if err != nil {
		t.Fatal(err)
	}
	checkCovers(t, set, sol, 4)
	// Covering everything needs the componentwise worst corner.
	if math.Abs(sol.Alternative.Quality-0.5) > 1e-12 ||
		math.Abs(sol.Alternative.Cost-0.58) > 1e-12 ||
		math.Abs(sol.Alternative.Latency-0.28) > 1e-12 {
		t.Errorf("alternative = %+v", sol.Alternative)
	}
}

func TestInputValidation(t *testing.T) {
	set := strategy.PaperExampleStrategies()
	solvers := map[string]func(strategy.Set, strategy.Request) (Solution, error){
		"Exact":       Exact,
		"BruteForceK": BruteForceK,
		"Baseline2":   Baseline2,
		"Baseline3":   Baseline3,
		"Grid":        ExhaustiveGrid,
	}
	for name, solve := range solvers {
		if _, err := solve(set, strategy.Request{Params: set[0].Params, K: 0}); !errors.Is(err, ErrBadK) {
			t.Errorf("%s: k=0 error = %v", name, err)
		}
		if _, err := solve(set, strategy.Request{Params: set[0].Params, K: 5}); !errors.Is(err, ErrNotEnoughStrategies) {
			t.Errorf("%s: k>|S| error = %v", name, err)
		}
		bad := strategy.Request{Params: strategy.Params{Quality: 2}, K: 1}
		if _, err := solve(set, bad); err == nil {
			t.Errorf("%s: invalid params accepted", name)
		}
	}
}

func TestBruteForceSizeLimit(t *testing.T) {
	set := make(strategy.Set, BruteForceLimit+1)
	for i := range set {
		set[i] = strategy.Strategy{ID: i, Params: strategy.Params{Quality: 0.5, Cost: 0.5, Latency: 0.5}}
	}
	if _, err := BruteForceK(set, strategy.Request{Params: set[0].Params, K: 2}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized brute force error = %v", err)
	}
}

func TestSolutionStrategiesTruncates(t *testing.T) {
	sol := Solution{Covered: []int{3, 5, 7}}
	if got := sol.Strategies(2); len(got) != 2 || got[0] != 3 {
		t.Errorf("Strategies(2) = %v", got)
	}
	if got := sol.Strategies(9); len(got) != 3 {
		t.Errorf("Strategies(9) = %v", got)
	}
}

// randomInstance builds a small random problem. Thresholds are drawn tight
// so relaxation is usually required.
func randomInstance(rng *rand.Rand, maxN int) (strategy.Set, strategy.Request) {
	n := 1 + rng.Intn(maxN)
	set := make(strategy.Set, n)
	for i := range set {
		set[i] = strategy.Strategy{ID: i, Params: strategy.Params{
			Quality: rng.Float64(),
			Cost:    rng.Float64(),
			Latency: rng.Float64(),
		}}
	}
	k := 1 + rng.Intn(n)
	d := strategy.Request{
		ID: "d",
		Params: strategy.Params{
			Quality: 0.5 + 0.5*rng.Float64(), // demanding quality
			Cost:    0.5 * rng.Float64(),     // tight budget
			Latency: 0.5 * rng.Float64(),     // tight deadline
		},
		K: k,
	}
	return set, d
}

// TestPropertyExactMatchesReferences is the central correctness property:
// on random instances ADPaR-Exact, the subset brute force and the grid
// enumeration all find the same optimal distance, and Exact's solution is
// feasible.
func TestPropertyExactMatchesReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := func() bool {
		set, d := randomInstance(rng, 12)
		exact, err := Exact(set, d)
		if err != nil {
			return false
		}
		grid, err := ExhaustiveGrid(set, d)
		if err != nil {
			return false
		}
		subsets, err := BruteForceK(set, d)
		if err != nil {
			return false
		}
		if math.Abs(exact.Distance-grid.Distance) > 1e-9 {
			return false
		}
		if math.Abs(exact.Distance-subsets.Distance) > 1e-9 {
			return false
		}
		// Feasibility of the exact solution.
		if len(exact.Covered) < d.K {
			return false
		}
		for _, id := range exact.Covered {
			if !strategy.Satisfies(set[id].Params, exact.Alternative) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBaselinesNeverBeatExact: Theorem 4 from the other side — no
// baseline may find a strictly closer feasible alternative.
func TestPropertyBaselinesNeverBeatExact(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	f := func() bool {
		set, d := randomInstance(rng, 20)
		exact, err := Exact(set, d)
		if err != nil {
			return false
		}
		for _, solve := range []func(strategy.Set, strategy.Request) (Solution, error){Baseline2, Baseline3} {
			sol, err := solve(set, d)
			if err != nil {
				return false
			}
			if sol.Distance < exact.Distance-1e-9 {
				return false
			}
			// Baselines must still return feasible alternatives.
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

// TestPropertyAlternativeOnlyRelaxes: d' never tightens the original
// bounds — quality only decreases, cost and latency only increase.
func TestPropertyAlternativeOnlyRelaxes(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	f := func() bool {
		set, d := randomInstance(rng, 20)
		for _, solve := range []func(strategy.Set, strategy.Request) (Solution, error){Exact, Baseline2, Baseline3} {
			sol, err := solve(set, d)
			if err != nil {
				return false
			}
			if sol.Alternative.Quality > d.Quality+1e-12 {
				return false
			}
			if sol.Alternative.Cost < d.Cost-1e-12 {
				return false
			}
			if sol.Alternative.Latency < d.Latency-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDistanceMonotoneInK: larger cardinality constraints can only
// push the alternative farther (Figure 17 c/d trend).
func TestPropertyDistanceMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	f := func() bool {
		set, d := randomInstance(rng, 15)
		if len(set) < 2 {
			return true
		}
		d.K = 1 + rng.Intn(len(set)-1)
		sol1, err := Exact(set, d)
		if err != nil {
			return false
		}
		d2 := d
		d2.K = d.K + 1
		sol2, err := Exact(set, d2)
		if err != nil {
			return false
		}
		return sol2.Distance >= sol1.Distance-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestPropertyExactOptimalAgainstRandomProbes: no random feasible corner
// may be closer than the exact optimum.
func TestPropertyExactOptimalAgainstRandomProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	f := func() bool {
		set, d := randomInstance(rng, 25)
		exact, err := Exact(set, d)
		if err != nil {
			return false
		}
		// Probes live in the (1 - quality, cost, latency) space.
		point := func(p strategy.Params) geometry.Point3 {
			return geometry.Point3{1 - p.Quality, p.Cost, p.Latency}
		}
		u := point(d.Params)
		pts := make([]geometry.Point3, len(set))
		for i, s := range set {
			pts[i] = point(s.Params)
		}
		for probe := 0; probe < 30; probe++ {
			alt := geometry.Point3{rng.Float64(), rng.Float64(), rng.Float64()}
			if geometry.CoverCount(pts, alt) >= d.K {
				if alt.Dist(u) < exact.Distance-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExactLargeInstanceSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	n := 5000
	set := make(strategy.Set, n)
	for i := range set {
		set[i] = strategy.Strategy{ID: i, Params: strategy.Params{
			Quality: rng.Float64(), Cost: rng.Float64(), Latency: rng.Float64(),
		}}
	}
	d := strategy.Request{ID: "d", Params: strategy.Params{Quality: 0.95, Cost: 0.05, Latency: 0.05}, K: 50}
	sol, err := Exact(set, d)
	if err != nil {
		t.Fatal(err)
	}
	checkCovers(t, set, sol, 50)
	if sol.Distance <= 0 {
		t.Errorf("tight request should need relaxation, distance = %v", sol.Distance)
	}
}

// ExhaustiveGrid enumerates every corner (x, y, z) with coordinates drawn
// from the per-dimension candidate values and returns the closest one
// covering at least k strategies. It is O(|S|^3) corners with an O(|S|)
// coverage check each — a deliberately simple exact reference for tests.
func ExhaustiveGrid(set strategy.Set, d strategy.Request) (Solution, error) {
	p, err := newProblem(set, d)
	if err != nil {
		return Solution{}, err
	}
	xs := distinctDimValues(p, 0)
	ys := distinctDimValues(p, 1)
	zs := distinctDimValues(p, 2)
	best2 := 1e308
	var bestAlt geometry.Point3
	found := false
	for _, x := range xs {
		for _, y := range ys {
			for _, z := range zs {
				alt := geometry.Point3{x, y, z}
				d2 := alt.Dist2(p.u)
				if found && d2 >= best2 {
					continue
				}
				if geometry.CoverCount(p.pts, alt) >= p.k {
					found = true
					best2 = d2
					bestAlt = alt
				}
			}
		}
	}
	if !found {
		return Solution{}, ErrNotEnoughStrategies
	}
	return p.solutionAt(bestAlt), nil
}
