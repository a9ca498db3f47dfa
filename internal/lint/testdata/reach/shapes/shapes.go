// Package shapes declares the interface the reach fixture's main
// implements: the only call of square.Area is the interface call in
// Total, in this package.
package shapes

type Shape interface{ Area() float64 }

func Total(ss []Shape) float64 {
	var sum float64
	for _, s := range ss {
		sum += s.Area()
	}
	return sum
}
