// Package linreg is a hand-rolled ordinary-least-squares simple linear
// regression, the fitting machinery behind the paper's Table 6: estimating
// (alpha, beta) of p = alpha*w + beta from observed (availability, parameter)
// pairs, with R², the slope's standard error and its t-test.
//
// The Go ecosystem constraint of this reproduction (stdlib only) means no
// external statistics packages; everything here is implemented from the
// textbook formulas.
package linreg

import (
	"errors"
	"fmt"
	"math"

	"stratrec/internal/stats"
)

// Fit is the result of regressing y on x: y ≈ Alpha*x + Beta.
type Fit struct {
	Alpha float64 // slope
	Beta  float64 // intercept
	N     int     // number of observations

	R2       float64 // coefficient of determination
	SEAlpha  float64 // standard error of the slope
	Residual float64 // residual standard error (sqrt(SSE/(n-2)))
}

// ErrTooFewPoints is returned when fewer than two distinct x values are
// supplied.
var ErrTooFewPoints = errors.New("linreg: need at least two observations with distinct x")

// OLS fits y = alpha*x + beta by ordinary least squares.
func OLS(x, y []float64) (Fit, error) {
	if len(x) != len(y) {
		return Fit{}, fmt.Errorf("linreg: len(x)=%d != len(y)=%d", len(x), len(y))
	}
	n := len(x)
	if n < 2 {
		return Fit{}, ErrTooFewPoints
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, ErrTooFewPoints
	}
	alpha := sxy / sxx
	beta := my - alpha*mx

	var sse float64
	for i := 0; i < n; i++ {
		r := y[i] - (alpha*x[i] + beta)
		sse += r * r
	}
	fit := Fit{Alpha: alpha, Beta: beta, N: n}
	// Guard against catastrophic cancellation on (near-)constant y: below
	// this variance the fit explains everything that is explainable.
	if syy > 1e-20 {
		fit.R2 = 1 - sse/syy
	} else {
		fit.R2 = 1
	}
	if n > 2 {
		s2 := sse / float64(n-2)
		fit.Residual = math.Sqrt(s2)
		fit.SEAlpha = math.Sqrt(s2 / sxx)
	}
	return fit, nil
}

// SlopePValue returns the two-sided p-value of H0: alpha = 0, the
// statistical-significance test behind the paper's "linear relationship ...
// with 90% statistical significance" claim.
func (f Fit) SlopePValue() float64 {
	if f.N <= 2 || f.SEAlpha == 0 {
		return 0
	}
	t := math.Abs(f.Alpha / f.SEAlpha)
	return 2 * (1 - stats.StudentTCDF(t, float64(f.N-2)))
}

// SignificantAt reports whether the slope differs from zero at the given
// significance level (e.g. 0.10 for 90% confidence).
func (f Fit) SignificantAt(level float64) bool {
	return f.SlopePValue() < level
}
