package linreg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOLSExactLine(t *testing.T) {
	x := []float64{0, 0.25, 0.5, 0.75, 1}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 0.09*v + 0.85 // Table 6 translation quality
	}
	fit, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-0.09) > 1e-12 || math.Abs(fit.Beta-0.85) > 1e-12 {
		t.Errorf("fit = (%v, %v), want (0.09, 0.85)", fit.Alpha, fit.Beta)
	}
	if math.Abs(fit.R2-1) > 1e-9 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
	if fit.Residual > 1e-9 {
		t.Errorf("Residual = %v, want ~0", fit.Residual)
	}
}

func TestOLSNoisyRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 400
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = -0.98*x[i] + 1.40 + rng.NormFloat64()*0.02
	}
	fit, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha+0.98) > 0.02 {
		t.Errorf("Alpha = %v, want ~-0.98", fit.Alpha)
	}
	if math.Abs(fit.Beta-1.40) > 0.02 {
		t.Errorf("Beta = %v, want ~1.40", fit.Beta)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99", fit.R2)
	}
	if !fit.SignificantAt(0.10) {
		t.Error("steep slope not significant at 90%")
	}
}

func TestOLSInputValidation(t *testing.T) {
	if _, err := OLS([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := OLS([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := OLS([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x accepted")
	}
}

func TestOLSConstantY(t *testing.T) {
	fit, err := OLS([]float64{0, 0.5, 1}, []float64{0.7, 0.7, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha != 0 || math.Abs(fit.Beta-0.7) > 1e-12 {
		t.Errorf("fit = (%v, %v)", fit.Alpha, fit.Beta)
	}
	if fit.R2 != 1 {
		t.Errorf("R2 of perfectly explained constant = %v", fit.R2)
	}
}

func TestSlopePValueFlatLine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = 0.5 + rng.NormFloat64() // pure noise, no slope
	}
	fit, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if p := fit.SlopePValue(); p < 0.01 {
		t.Errorf("noise slope p-value = %v, should not be tiny", p)
	}
}

func TestPropertyOLSRecoversPlantedLine(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func() bool {
		alpha := rng.Float64()*4 - 2
		beta := rng.Float64()*2 - 1
		n := 10 + rng.Intn(40)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i) / float64(n-1)
			y[i] = alpha*x[i] + beta
		}
		fit, err := OLS(x, y)
		if err != nil {
			return false
		}
		return math.Abs(fit.Alpha-alpha) < 1e-9 && math.Abs(fit.Beta-beta) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyResidualOrthogonality(t *testing.T) {
	// OLS residuals are orthogonal to x and sum to zero.
	rng := rand.New(rand.NewSource(32))
	f := func() bool {
		n := 5 + rng.Intn(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			y[i] = rng.Float64()
		}
		fit, err := OLS(x, y)
		if err != nil {
			return true // duplicate x values possible but measure-zero
		}
		var sumR, sumRX float64
		for i := range x {
			r := y[i] - (fit.Alpha*x[i] + fit.Beta)
			sumR += r
			sumRX += r * x[i]
		}
		return math.Abs(sumR) < 1e-8 && math.Abs(sumRX) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
