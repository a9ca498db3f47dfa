// Package stats is the hand-rolled statistics substrate of the
// reproduction: descriptive statistics, random variate generation for the
// synthetic workloads (uniform and truncated normal, Section 5.2.2), the
// Student-t distribution (CDF via the regularized incomplete beta function
// and quantiles by bisection), and Welch's two-sample t-test used to back
// the paper's "with statistical significance" claims.
package stats

import (
	"errors"
	"math"
	"math/rand"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	StdErr float64 // standard error of the mean
	Min    float64
	Max    float64
}

// Summarize computes descriptive statistics. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
		s.StdErr = s.Std / math.Sqrt(float64(s.N))
	}
	return s
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Uniform draws from U[lo, hi].
func Uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*rng.Float64()
}

// TruncNormal draws from N(mean, std) truncated (by rejection) to [lo, hi].
// The paper's synthetic strategy generator uses N(0.75, 0.1) values kept
// inside the unit interval.
func TruncNormal(rng *rand.Rand, mean, std, lo, hi float64) float64 {
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64()*std + mean
		if v >= lo && v <= hi {
			return v
		}
	}
	// Pathological parameters: fall back to clamping.
	v := rng.NormFloat64()*std + mean
	return math.Min(hi, math.Max(lo, v))
}

// ErrTooFewSamples is returned by tests that need at least two observations
// per sample.
var ErrTooFewSamples = errors.New("stats: need at least two observations per sample")

// TTestResult is the outcome of Welch's two-sample t-test.
type TTestResult struct {
	T       float64 // test statistic
	DF      float64 // Welch–Satterthwaite degrees of freedom
	P       float64 // two-sided p-value
	MeanA   float64
	MeanB   float64
	DeltaCI [2]float64 // 95% confidence interval of meanA - meanB
}

// WelchTTest compares the means of two independent samples without assuming
// equal variances.
func WelchTTest(a, b []float64) (TTestResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{}, ErrTooFewSamples
	}
	sa, sb := Summarize(a), Summarize(b)
	va := sa.Std * sa.Std / float64(sa.N)
	vb := sb.Std * sb.Std / float64(sb.N)
	res := TTestResult{MeanA: sa.Mean, MeanB: sb.Mean}
	if va+vb == 0 {
		// Identical constant samples: no evidence of difference.
		if sa.Mean == sb.Mean {
			res.P = 1
			res.DF = float64(sa.N + sb.N - 2)
			return res, nil
		}
		res.P = 0
		res.T = math.Inf(sign(sa.Mean - sb.Mean))
		res.DF = float64(sa.N + sb.N - 2)
		return res, nil
	}
	res.T = (sa.Mean - sb.Mean) / math.Sqrt(va+vb)
	num := (va + vb) * (va + vb)
	den := va*va/float64(sa.N-1) + vb*vb/float64(sb.N-1)
	res.DF = num / den
	res.P = 2 * (1 - StudentTCDF(math.Abs(res.T), res.DF))
	tq := StudentTQuantile(0.975, res.DF)
	half := tq * math.Sqrt(va+vb)
	res.DeltaCI = [2]float64{sa.Mean - sb.Mean - half, sa.Mean - sb.Mean + half}
	return res, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}
