package main

import (
	"math"
	"testing"
)

func TestTailQuantileSampleRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 1}, {1, 1}, {99, 1}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {50000, 0.99},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q, want float64
	}{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0, 1}, {0.11, 2},
	} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile(empty) = %v, want NaN", got)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := quantile(big, tailQuantile(len(big))); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
}

// The expected values are what Python's statistics.median and
// statistics.quantiles(xs, n=4) return for the same inputs.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
		iqrShare    float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25, 1},
		{[]float64{10, 3, 7}, 7, 3, 10, 1},
		{[]float64{2, 4}, 3, 1.5, 4.5, 1},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5, 1},
		{[]float64{1.5, 1.5, 1.5, 1.5}, 1.5, 1.5, 1.5, 0},
	} {
		if got := median(tc.xs); got != tc.med {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
		if sm := summarize(tc.xs); math.Abs(sm.IQRShare-tc.iqrShare) > 1e-9 {
			t.Errorf("summarize(%v).IQRShare = %v, want %v", tc.xs, sm.IQRShare, tc.iqrShare)
		}
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
}
