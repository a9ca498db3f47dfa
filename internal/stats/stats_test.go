package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("Summary = %+v", s)
	}
	// Sample std with n-1 denominator: sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std, want)
	}
	if want := math.Sqrt(32.0/7.0) / math.Sqrt(8); math.Abs(s.StdErr-want) > 1e-12 {
		t.Errorf("StdErr = %v, want %v", s.StdErr, want)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Std != 0 || s.StdErr != 0 {
		t.Errorf("Summary = %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("Summarize(nil) should panic")
		}
	}()
	Summarize(nil)
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := Uniform(rng, 0.5, 1)
		if v < 0.5 || v >= 1 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestTruncNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		v := TruncNormal(rng, 0.75, 0.1, 0.5, 1)
		if v < 0.5 || v > 1 {
			t.Fatalf("TruncNormal out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.75) > 0.01 {
		t.Errorf("TruncNormal mean = %v, want ~0.75", mean)
	}
	// Swapped bounds are tolerated.
	if v := TruncNormal(rng, 0.75, 0.1, 1, 0.5); v < 0.5 || v > 1 {
		t.Errorf("swapped-bound TruncNormal = %v", v)
	}
}

func TestTruncNormalPathological(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Mean far outside the window: rejection fails, clamping kicks in.
	v := TruncNormal(rng, 10, 0.001, 0, 1)
	if v < 0 || v > 1 {
		t.Errorf("pathological TruncNormal = %v", v)
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// Reference values from standard t-tables.
	cases := []struct {
		t, df, want float64
	}{
		{0, 5, 0.5},
		{2.015, 5, 0.95},   // t_{0.95, 5}
		{2.571, 5, 0.975},  // t_{0.975, 5}
		{1.812, 10, 0.95},  // t_{0.95, 10}
		{2.228, 10, 0.975}, // t_{0.975, 10}
		{1.645, 1e6, 0.95}, // converges to normal
		{-2.571, 5, 0.025}, // symmetry
	}
	for _, c := range cases {
		if got := StudentTCDF(c.t, c.df); math.Abs(got-c.want) > 5e-4 {
			t.Errorf("StudentTCDF(%v, %v) = %v, want %v", c.t, c.df, got, c.want)
		}
	}
	if got := StudentTCDF(math.Inf(1), 5); got != 1 {
		t.Errorf("CDF(+inf) = %v", got)
	}
	if got := StudentTCDF(math.Inf(-1), 5); got != 0 {
		t.Errorf("CDF(-inf) = %v", got)
	}
	if got := StudentTCDF(1, 0); !math.IsNaN(got) {
		t.Errorf("CDF with df=0 = %v, want NaN", got)
	}
}

func TestStudentTQuantileInvertsCDF(t *testing.T) {
	for _, df := range []float64{3, 8, 30, 200} {
		for _, p := range []float64{0.05, 0.25, 0.5, 0.9, 0.975} {
			q := StudentTQuantile(p, df)
			if back := StudentTCDF(q, df); math.Abs(back-p) > 1e-9 {
				t.Errorf("CDF(Quantile(%v, df=%v)) = %v", p, df, back)
			}
		}
	}
	if got := StudentTQuantile(0.5, 7); got != 0 {
		t.Errorf("median quantile = %v, want 0", got)
	}
	if !math.IsNaN(StudentTQuantile(0, 5)) || !math.IsNaN(StudentTQuantile(1.2, 5)) {
		t.Error("out-of-range p should yield NaN")
	}
}

func TestWelchTTestDistinguishes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, 60)
	b := make([]float64, 60)
	for i := range a {
		a[i] = 0.80 + rng.NormFloat64()*0.05 // StratRec quality
		b[i] = 0.65 + rng.NormFloat64()*0.08 // unguided quality
	}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.001 {
		t.Errorf("clearly different means: p = %v", res.P)
	}
	if res.MeanA <= res.MeanB {
		t.Errorf("means = %v, %v", res.MeanA, res.MeanB)
	}
	if res.DeltaCI[0] > 0.15 || res.DeltaCI[1] < 0.15 {
		t.Errorf("95%% CI %v misses true delta 0.15", res.DeltaCI)
	}
}

func TestWelchTTestNoDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i] = 0.5 + rng.NormFloat64()*0.1
		b[i] = 0.5 + rng.NormFloat64()*0.1
	}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Errorf("same-mean samples flagged significant: p = %v", res.P)
	}
}

func TestWelchTTestEdgeCases(t *testing.T) {
	if _, err := WelchTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("undersized sample accepted")
	}
	// Identical constant samples: p = 1.
	res, err := WelchTTest([]float64{2, 2, 2}, []float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 {
		t.Errorf("identical constants p = %v, want 1", res.P)
	}
	// Different constants: p = 0.
	res, err = WelchTTest([]float64{2, 2, 2}, []float64{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 {
		t.Errorf("distinct constants p = %v, want 0", res.P)
	}
}

func TestPropertyCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		df := 1 + rng.Float64()*100
		a := rng.NormFloat64() * 3
		b := a + rng.Float64()*3
		return StudentTCDF(a, df) <= StudentTCDF(b, df)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCDFSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		df := 1 + rng.Float64()*50
		x := rng.NormFloat64() * 2
		return math.Abs(StudentTCDF(x, df)+StudentTCDF(-x, df)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
