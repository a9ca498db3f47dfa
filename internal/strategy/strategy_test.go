package strategy

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"stratrec/internal/geometry"
)

func TestDimensionStrings(t *testing.T) {
	d := Dimensions{Sequential, Independent, CrowdOnly}
	if got := d.String(); got != "SEQ-IND-CRO" {
		t.Errorf("String = %q", got)
	}
	d = Dimensions{Simultaneous, Collaborative, Hybrid}
	if got := d.String(); got != "SIM-COL-HYB" {
		t.Errorf("String = %q", got)
	}
}

func TestUnknownEnumStrings(t *testing.T) {
	if got := Structure(9).String(); !strings.Contains(got, "9") {
		t.Errorf("Structure(9) = %q", got)
	}
	if got := Organization(9).String(); !strings.Contains(got, "9") {
		t.Errorf("Organization(9) = %q", got)
	}
	if got := Style(9).String(); !strings.Contains(got, "9") {
		t.Errorf("Style(9) = %q", got)
	}
}

func TestAllDimensions(t *testing.T) {
	all := AllDimensions()
	if len(all) != 8 {
		t.Fatalf("len(AllDimensions) = %d, want 8", len(all))
	}
	seen := map[string]bool{}
	for _, d := range all {
		if seen[d.String()] {
			t.Errorf("duplicate combination %v", d)
		}
		seen[d.String()] = true
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{Quality: 0.5, Cost: 0, Latency: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Quality: -0.1, Cost: 0.5, Latency: 0.5},
		{Quality: 0.5, Cost: 1.1, Latency: 0.5},
		{Quality: 0.5, Cost: 0.5, Latency: math.NaN()},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid params %+v accepted", p)
		}
	}
}

func TestSatisfies(t *testing.T) {
	d := Params{Quality: 0.7, Cost: 0.83, Latency: 0.28}
	cases := []struct {
		s    Params
		want bool
	}{
		{Params{Quality: 0.75, Cost: 0.33, Latency: 0.28}, true}, // s2 vs d3
		{Params{Quality: 0.5, Cost: 0.25, Latency: 0.28}, false}, // s1: quality too low
		{Params{Quality: 0.88, Cost: 0.58, Latency: 0.14}, true}, // s4
		{Params{Quality: 0.9, Cost: 0.9, Latency: 0.28}, false},  // cost too high
		{Params{Quality: 0.9, Cost: 0.5, Latency: 0.29}, false},  // latency too high
		{Params{Quality: 0.7, Cost: 0.83, Latency: 0.28}, true},  // boundary equality
	}
	for _, c := range cases {
		if got := Satisfies(c.s, d); got != c.want {
			t.Errorf("Satisfies(%+v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestPaperExampleSatisfaction(t *testing.T) {
	// Section 2.2: d3 is successful with S = {s2, s3, s4}; d1 and d2 have
	// no satisfying strategy at all.
	set := PaperExampleStrategies()
	reqs := PaperExampleRequests()

	if got := set.Satisfying(reqs[2]); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("d3 satisfying = %v, want [1 2 3]", got)
	}
	if got := set.Satisfying(reqs[0]); len(got) != 0 {
		t.Errorf("d1 satisfying = %v, want none", got)
	}
	if got := set.Satisfying(reqs[1]); len(got) != 0 {
		t.Errorf("d2 satisfying = %v, want none", got)
	}
}

func TestRequestValidate(t *testing.T) {
	r := Request{ID: "d", Params: Params{Quality: 0.5, Cost: 0.5, Latency: 0.5}, K: 3}
	if err := r.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	r.K = 0
	if err := r.Validate(); err == nil {
		t.Error("k=0 accepted")
	}
	r.K = 1
	r.Quality = 2
	if err := r.Validate(); err == nil {
		t.Error("out-of-range quality accepted")
	}
}

func TestSetValidate(t *testing.T) {
	if err := (Set{}).Validate(); err == nil {
		t.Error("empty set accepted")
	}
	set := PaperExampleStrategies()
	if err := set.Validate(); err != nil {
		t.Errorf("paper set rejected: %v", err)
	}
	set[1].ID = 7
	if err := set.Validate(); err == nil {
		t.Error("misnumbered set accepted")
	}
	set = set.Renumber()
	if err := set.Validate(); err != nil {
		t.Errorf("renumbered set rejected: %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	s := PaperExampleStrategies()[2]
	got := s.String()
	if !strings.Contains(got, "s3") || !strings.Contains(got, "SIM-IND-CRO") ||
		!strings.Contains(got, "q=0.80") {
		t.Errorf("String = %q", got)
	}
	s.Name = ""
	s.ID = 4
	if got := s.String(); !strings.HasPrefix(got, "s5 ") {
		t.Errorf("default name = %q", got)
	}
}

func TestPropertySatisfiesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		s := Params{Quality: rng.Float64(), Cost: rng.Float64(), Latency: rng.Float64()}
		d := Params{Quality: rng.Float64(), Cost: rng.Float64(), Latency: rng.Float64()}
		// Loosening every threshold preserves satisfaction.
		loose := Params{Quality: d.Quality * rng.Float64(), Cost: d.Cost + (1-d.Cost)*rng.Float64(), Latency: d.Latency + (1-d.Latency)*rng.Float64()}
		if Satisfies(s, d) && !Satisfies(s, loose) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertySatisfiesMatchesDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func() bool {
		s := Params{Quality: rng.Float64(), Cost: rng.Float64(), Latency: rng.Float64()}
		d := Params{Quality: rng.Float64(), Cost: rng.Float64(), Latency: rng.Float64()}
		// The satisfaction predicate and geometric dominance agree.
		return Satisfies(s, d) == point(s).DominatedBy(point(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// point maps parameters into the smaller-is-better space of Section 4:
// (1 - quality, cost, latency).
func point(p Params) geometry.Point3 {
	return geometry.Point3{1 - p.Quality, p.Cost, p.Latency}
}
