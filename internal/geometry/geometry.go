// Package geometry provides the small 3-D computational-geometry toolkit the
// ADPaR algorithms are built on: points, axis-parallel boxes, dominance tests
// and Euclidean distances in the normalized deployment-parameter space.
//
// Throughout the package the three coordinates are interpreted in the
// "smaller is better" space used by Section 4 of the paper: dimension 0 is
// inverted quality (1 - quality), dimension 1 is cost and dimension 2 is
// latency. In that space a strategy point is covered by a deployment bound
// iff it is dominated by it componentwise.
package geometry

import (
	"fmt"
	"math"
)

// Dims is the dimensionality of the deployment-parameter space.
const Dims = 3

// Names of the three dimensions in the smaller-is-better space, indexable by
// dimension number. Dimension 0 holds inverted quality.
var DimNames = [Dims]string{"quality", "cost", "latency"}

// Point3 is a point in the 3-D normalized parameter space.
type Point3 [Dims]float64

// Max returns the componentwise maximum of p and q.
func (p Point3) Max(q Point3) Point3 {
	return Point3{math.Max(p[0], q[0]), math.Max(p[1], q[1]), math.Max(p[2], q[2])}
}

// Min returns the componentwise minimum of p and q.
func (p Point3) Min(q Point3) Point3 {
	return Point3{math.Min(p[0], q[0]), math.Min(p[1], q[1]), math.Min(p[2], q[2])}
}

// DominatedBy reports whether p <= q in every coordinate, i.e. whether the
// strategy point p is covered by the deployment bound q.
func (p Point3) DominatedBy(q Point3) bool {
	return p[0] <= q[0] && p[1] <= q[1] && p[2] <= q[2]
}

// Dist returns the Euclidean (l2) distance between p and q. This is the
// objective function of the ADPaR problem (Equation 3).
func (p Point3) Dist(q Point3) float64 {
	d0, d1, d2 := p[0]-q[0], p[1]-q[1], p[2]-q[2]
	return math.Sqrt(d0*d0 + d1*d1 + d2*d2)
}

// Dist2 returns the squared Euclidean distance between p and q. Comparing
// squared distances avoids the square root in inner loops.
func (p Point3) Dist2(q Point3) float64 {
	d0, d1, d2 := p[0]-q[0], p[1]-q[1], p[2]-q[2]
	return d0*d0 + d1*d1 + d2*d2
}

// String renders the point with three decimals, e.g. "(0.200, 0.330, 0.280)".
func (p Point3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", p[0], p[1], p[2])
}

// Rect3 is an axis-parallel box in the 3-D parameter space, identified by its
// componentwise minimum and maximum corners. The deployment hyper-rectangle
// of Section 4 is the box [origin, u(d)].
type Rect3 struct {
	Lo, Hi Point3
}

// RectFromPoint returns the degenerate box holding a single point.
func RectFromPoint(p Point3) Rect3 { return Rect3{Lo: p, Hi: p} }

// Union returns the smallest box containing both r and s.
func (r Rect3) Union(s Rect3) Rect3 {
	return Rect3{Lo: r.Lo.Min(s.Lo), Hi: r.Hi.Max(s.Hi)}
}

// Extend returns the smallest box containing r and the point p.
func (r Rect3) Extend(p Point3) Rect3 {
	return Rect3{Lo: r.Lo.Min(p), Hi: r.Hi.Max(p)}
}

// String renders the box as "[lo, hi]".
func (r Rect3) String() string {
	return fmt.Sprintf("[%v, %v]", r.Lo, r.Hi)
}

// CoverCount returns the number of points dominated by bound. It is the
// primitive the ADPaR cardinality constraint (|{s : x(s) <= d'}| >= k) is
// phrased in terms of, and the reference implementation baselines and tests
// compare against.
func CoverCount(points []Point3, bound Point3) int {
	n := 0
	for _, p := range points {
		if p.DominatedBy(bound) {
			n++
		}
	}
	return n
}

// Covered returns the indices of all points dominated by bound, in input
// order. A counting pass sizes the result exactly, so the call performs at
// most one allocation — it sits on the per-request serving path, where
// append-growth reallocations dominated the allocation profile.
func Covered(points []Point3, bound Point3) []int {
	n := CoverCount(points, bound)
	if n == 0 {
		return nil
	}
	idx := make([]int, 0, n)
	for i, p := range points {
		if p.DominatedBy(bound) {
			idx = append(idx, i)
		}
	}
	return idx
}
