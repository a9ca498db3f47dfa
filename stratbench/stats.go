package main

import (
	"math"
	"sort"
)

// tailQuantile is the sample-count rule for the highest percentile a
// latency sample supports: p99 needs at least ten samples beyond it
// (n >= 1000), otherwise p90 is reported in its place (n >= 100), and a
// smaller sample reports its maximum.
func tailQuantile(n int) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n >= 100:
		return 0.90
	}
	return 1
}

// quantile returns the nearest-rank q-quantile of an ascending slice
// (q=0.5 is the median sample, q=1 the maximum). NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(i, 0), n-1)]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the interpolated median (the mean of the two middle values
// for an even count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the "exclusive"
// method of Python's statistics.quantiles(values, n=4), so spreads
// reported here match a reviewer's recomputation from the raw values.
// With fewer than two values both quartiles are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// summary is one metric's spread across repeated runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// IQRShare is (Q3-Q1)/Median, the spread the regression bounds are
	// compared against.
	IQRShare float64 `json:"iqr_share"`
	N        int     `json:"n"`
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	q1, q3 := quartiles(s)
	sm := summary{Median: median(s), Q1: q1, Q3: q3, N: len(s)}
	if len(s) > 0 {
		sm.Min, sm.Max = s[0], s[len(s)-1]
	}
	if sm.Median != 0 {
		sm.IQRShare = (q3 - q1) / math.Abs(sm.Median)
	}
	return sm
}
