package stats

import "math"

// This file implements the special functions the significance tests rest
// on: the log-gamma function, the regularized incomplete beta function
// (Lentz's continued fraction), the Student-t CDF and its quantile by
// bisection. All hand-rolled from standard numerical recipes because the
// reproduction is stdlib-only.

// logGamma returns ln |Gamma(x)| using the Lanczos approximation.
func logGamma(x float64) float64 {
	// math.Lgamma is in the stdlib; use it but keep the wrapper so all
	// special functions route through one place.
	v, _ := math.Lgamma(x)
	return v
}

// betaIncomplete returns the regularized incomplete beta function
// I_x(a, b), computed with the continued-fraction expansion (Numerical
// Recipes §6.4, Lentz's method).
func betaIncomplete(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := logGamma(a+b) - logGamma(a) - logGamma(b) +
		a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for betaIncomplete via modified
// Lentz's method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// StudentTCDF returns P(T <= t) for a Student-t variable with df degrees of
// freedom.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * betaIncomplete(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// StudentTQuantile returns the p-quantile (inverse CDF) of the Student-t
// distribution with df degrees of freedom, computed by bisection. p must be
// in (0, 1).
func StudentTQuantile(p, df float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 || df <= 0 {
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	lo, hi := -1e6, 1e6
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if StudentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12 {
			break
		}
	}
	return (lo + hi) / 2
}
