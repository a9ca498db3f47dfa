package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func pt(a, b, c float64) Point3 { return Point3{a, b, c} }

// inside reports whether box r lies completely inside box s.
func inside(r, s Rect3) bool { return s.Lo.DominatedBy(r.Lo) && r.Hi.DominatedBy(s.Hi) }

func TestPointArithmetic(t *testing.T) {
	p := pt(0.1, 0.2, 0.3)
	q := pt(0.4, 0.1, 0.3)
	if got := p.Max(q); got != pt(0.4, 0.2, 0.3) {
		t.Errorf("Max = %v", got)
	}
	if got := p.Min(q); got != pt(0.1, 0.1, 0.3) {
		t.Errorf("Min = %v", got)
	}
}

func TestDominance(t *testing.T) {
	cases := []struct {
		p, q Point3
		dom  bool
	}{
		{pt(0.1, 0.2, 0.3), pt(0.1, 0.2, 0.3), true},
		{pt(0.1, 0.2, 0.3), pt(0.2, 0.2, 0.3), true},
		{pt(0.1, 0.2, 0.3), pt(0.2, 0.1, 0.3), false},
		{pt(0, 0, 0), pt(1, 1, 1), true},
	}
	for _, c := range cases {
		if got := c.p.DominatedBy(c.q); got != c.dom {
			t.Errorf("DominatedBy(%v, %v) = %v, want %v", c.p, c.q, got, c.dom)
		}
	}
}

func TestDist(t *testing.T) {
	p, q := pt(0, 0, 0), pt(1, 2, 2)
	if got := p.Dist(q); math.Abs(got-3) > 1e-12 {
		t.Errorf("Dist = %v, want 3", got)
	}
	if got := p.Dist2(q); math.Abs(got-9) > 1e-12 {
		t.Errorf("Dist2 = %v, want 9", got)
	}
}

func TestPointString(t *testing.T) {
	if got := pt(0.2, 0.33, 0.28).String(); got != "(0.200, 0.330, 0.280)" {
		t.Errorf("String = %q", got)
	}
}

func TestRectUnionExtend(t *testing.T) {
	a := Rect3{Lo: pt(0, 0, 0), Hi: pt(0.2, 0.2, 0.2)}
	b := Rect3{Lo: pt(0.5, 0.1, 0), Hi: pt(0.6, 0.9, 0.1)}
	u := a.Union(b)
	if !inside(a, u) || !inside(b, u) {
		t.Errorf("union %v does not contain operands", u)
	}
	e := a.Extend(pt(1, 1, 1))
	if !inside(RectFromPoint(pt(1, 1, 1)), e) || !inside(a, e) {
		t.Errorf("extend %v missing point or original box", e)
	}
}

func TestCoverCountAndCovered(t *testing.T) {
	pts := []Point3{pt(0.1, 0.1, 0.1), pt(0.5, 0.5, 0.5), pt(0.9, 0.9, 0.9)}
	bound := pt(0.5, 0.5, 0.5)
	if n := CoverCount(pts, bound); n != 2 {
		t.Errorf("CoverCount = %d, want 2", n)
	}
	idx := Covered(pts, bound)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Errorf("Covered = %v", idx)
	}
}

// randomPoint draws coordinates in [0, 1].
func randomPoint(rng *rand.Rand) Point3 {
	return Point3{rng.Float64(), rng.Float64(), rng.Float64()}
}

func TestPropertyDominanceTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randomPoint(rng), randomPoint(rng)
		c := b.Max(randomPoint(rng))
		// a <= b and b <= c implies a <= c.
		if a.DominatedBy(b) && b.DominatedBy(c) && !a.DominatedBy(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMaxDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randomPoint(rng), randomPoint(rng)
		m := a.Max(b)
		return a.DominatedBy(m) && b.DominatedBy(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDistMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b, c := randomPoint(rng), randomPoint(rng), randomPoint(rng)
		// Symmetry, identity, triangle inequality.
		if math.Abs(a.Dist(b)-b.Dist(a)) > 1e-12 {
			return false
		}
		if a.Dist(a) != 0 {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyUnionContains(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		p1, p2 := randomPoint(rng), randomPoint(rng)
		q1, q2 := randomPoint(rng), randomPoint(rng)
		a := Rect3{Lo: p1.Min(p2), Hi: p1.Max(p2)}
		b := Rect3{Lo: q1.Min(q2), Hi: q1.Max(q2)}
		u := a.Union(b)
		return inside(a, u) && inside(b, u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCoverCountMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		pts := make([]Point3, 20)
		for i := range pts {
			pts[i] = randomPoint(rng)
		}
		a := randomPoint(rng)
		b := a.Max(randomPoint(rng)) // b dominates a
		return CoverCount(pts, a) <= CoverCount(pts, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
