package availability

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPaperExamplePDF(t *testing.T) {
	// Section 2.1: 70% chance of 7% of workers, 30% chance of 2% -> 5.5%.
	pdf, err := NewPDF([]Outcome{{Proportion: 0.07, Prob: 0.7}, {Proportion: 0.02, Prob: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pdf.Expected(); math.Abs(got-0.055) > 1e-12 {
		t.Errorf("Expected = %v, want 0.055", got)
	}
}

func TestSection22Example(t *testing.T) {
	// Section 2.2: 50% of 700/1000 and 50% of 900/1000 -> W = 0.8.
	pdf, err := NewPDF([]Outcome{{Proportion: 0.7, Prob: 0.5}, {Proportion: 0.9, Prob: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pdf.Expected(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Expected = %v, want 0.8", got)
	}
}

func TestNewPDFValidation(t *testing.T) {
	cases := []struct {
		name string
		outs []Outcome
	}{
		{"empty", nil},
		{"probability sum", []Outcome{{Proportion: 0.5, Prob: 0.5}}},
		{"negative prob", []Outcome{{Proportion: 0.5, Prob: -0.5}, {Proportion: 0.6, Prob: 1.5}}},
		{"proportion range", []Outcome{{Proportion: 1.5, Prob: 1}}},
		{"nan proportion", []Outcome{{Proportion: math.NaN(), Prob: 1}}},
	}
	for _, c := range cases {
		if _, err := NewPDF(c.outs); err == nil {
			t.Errorf("%s: invalid PDF accepted", c.name)
		}
	}
}

func TestPDFDedupe(t *testing.T) {
	pdf, err := NewPDF([]Outcome{
		{Proportion: 0.5, Prob: 0.25},
		{Proportion: 0.5, Prob: 0.25},
		{Proportion: 0.8, Prob: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	outs := pdf.Outcomes()
	if len(outs) != 2 {
		t.Fatalf("outcomes = %v, want 2 merged entries", outs)
	}
	if outs[0].Proportion != 0.5 || math.Abs(outs[0].Prob-0.5) > 1e-12 {
		t.Errorf("merged outcome = %+v", outs[0])
	}
}

func TestVariance(t *testing.T) {
	pdf, _ := NewPDF([]Outcome{{Proportion: 0, Prob: 0.5}, {Proportion: 1, Prob: 0.5}})
	if got := pdf.Variance(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Variance = %v, want 0.25", got)
	}
}

func TestEstimatePDF(t *testing.T) {
	pdf, err := EstimatePDF([]float64{0.6, 0.8, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if got := pdf.Expected(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("Expected = %v, want 0.7", got)
	}
	if _, err := EstimatePDF(nil); err == nil {
		t.Error("empty observations accepted")
	}
}

func day(d int) time.Time {
	return time.Date(2019, 4, 19, 0, 0, 0, 0, time.UTC).AddDate(0, 0, d)
}

func TestWindow(t *testing.T) {
	w := Window{Name: "weekend", Start: day(0), End: day(3)}
	if got := w.Duration(); got != 72*time.Hour {
		t.Errorf("Duration = %v", got)
	}
}

func TestPropertyExpectationLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		n := 1 + rng.Intn(6)
		outs := make([]Outcome, n)
		rest := 1.0
		for i := 0; i < n; i++ {
			p := rest
			if i < n-1 {
				p = rest * rng.Float64()
			}
			outs[i] = Outcome{Proportion: rng.Float64(), Prob: p}
			rest -= p
		}
		pdf, err := NewPDF(outs)
		if err != nil {
			return true // rounding artifacts may invalidate; skip
		}
		// Expectation equals the direct dot product.
		want := 0.0
		for _, o := range outs {
			want += o.Prob * o.Proportion
		}
		return math.Abs(pdf.Expected()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyVarianceNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func() bool {
		p := rng.Float64()
		pdf, err := NewPDF([]Outcome{
			{Proportion: rng.Float64(), Prob: p},
			{Proportion: rng.Float64(), Prob: 1 - p},
		})
		if err != nil {
			return true
		}
		return pdf.Variance() >= -1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
