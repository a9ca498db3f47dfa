// Package availability models worker availability as the paper does in
// Section 2.1: a discrete random variable over the proportion of suitable
// workers available within a deployment window, represented by its
// probability distribution function and consumed by StratRec through its
// expected value W in [0,1].
package availability

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// probTolerance is how far the probability mass of a PDF may deviate from 1.
const probTolerance = 1e-9

// Outcome is one point of the discrete distribution: with probability Prob,
// a Proportion of the suitable worker pool is available.
type Outcome struct {
	Proportion float64 `json:"proportion"`
	Prob       float64 `json:"prob"`
}

// PDF is a discrete probability distribution over availability proportions.
// The paper's example: {(0.07, 0.7), (0.02, 0.3)} yields an expectation of
// 0.055, i.e. 5.5% of the pool.
type PDF struct {
	outcomes []Outcome
}

// NewPDF builds a distribution from outcomes. Outcomes are copied,
// deduplicated by proportion (probabilities of equal proportions are summed)
// and sorted by proportion. The probabilities must be non-negative and sum
// to 1; proportions must lie in [0,1].
func NewPDF(outcomes []Outcome) (*PDF, error) {
	if len(outcomes) == 0 {
		return nil, errors.New("availability: PDF needs at least one outcome")
	}
	byProp := make(map[float64]float64, len(outcomes))
	total := 0.0
	for _, o := range outcomes {
		if o.Proportion < 0 || o.Proportion > 1 || math.IsNaN(o.Proportion) {
			return nil, fmt.Errorf("availability: proportion %v outside [0,1]", o.Proportion)
		}
		if o.Prob < 0 || math.IsNaN(o.Prob) {
			return nil, fmt.Errorf("availability: negative probability %v", o.Prob)
		}
		byProp[o.Proportion] += o.Prob
		total += o.Prob
	}
	if math.Abs(total-1) > probTolerance {
		return nil, fmt.Errorf("availability: probabilities sum to %v, want 1", total)
	}
	merged := make([]Outcome, 0, len(byProp))
	for p, pr := range byProp {
		merged = append(merged, Outcome{Proportion: p, Prob: pr})
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Proportion < merged[j].Proportion })
	return &PDF{outcomes: merged}, nil
}

// Outcomes returns a copy of the outcomes in ascending proportion order.
func (p *PDF) Outcomes() []Outcome {
	out := make([]Outcome, len(p.outcomes))
	copy(out, p.outcomes)
	return out
}

// Expected returns E[proportion], the expected worker availability W that
// StratRec works with.
func (p *PDF) Expected() float64 {
	e := 0.0
	for _, o := range p.outcomes {
		e += o.Proportion * o.Prob
	}
	return e
}

// Variance returns Var[proportion].
func (p *PDF) Variance() float64 {
	e := p.Expected()
	v := 0.0
	for _, o := range p.outcomes {
		d := o.Proportion - e
		v += d * d * o.Prob
	}
	return v
}

// Window is a deployment window: a half-open interval [Start, End) such as
// the paper's weekend window (Friday 12am to Monday 12am).
type Window struct {
	Name  string
	Start time.Time
	End   time.Time
}

// Duration returns the window length.
func (w Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// EstimatePDF builds an availability PDF from repeated observations of the
// same window type (e.g. three weekend deployments): every observation
// becomes an equally likely outcome. This is the "computed from historical
// data" construction of Section 2.1.
func EstimatePDF(observations []float64) (*PDF, error) {
	if len(observations) == 0 {
		return nil, errors.New("availability: no observations")
	}
	outs := make([]Outcome, len(observations))
	p := 1 / float64(len(observations))
	for i, w := range observations {
		outs[i] = Outcome{Proportion: w, Prob: p}
	}
	return NewPDF(outs)
}
