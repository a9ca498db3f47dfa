// Package core is StratRec itself: the optimization-driven middle layer of
// Figure 1 that sits between requesters, workers and the platform. It wires
// the Aggregator pipeline — deployment strategy modeling (Section 3.1),
// workforce requirement computation (Section 3.2) and optimization-guided
// batch deployment (Section 3.3) — and routes every unsatisfied request
// through the Alternative Parameter Recommendation module (Section 4).
package core

import (
	"errors"
	"fmt"

	"stratrec/internal/adpar"
	"stratrec/internal/batch"
	"stratrec/internal/strategy"
	"stratrec/internal/workforce"
)

// Config selects the platform-centric goal and aggregation semantics.
type Config struct {
	// Objective is the platform goal F: throughput or pay-off.
	Objective batch.Objective
	// Mode chooses sum-case (deploy with all k strategies) or max-case
	// (deploy with one of the k) workforce aggregation.
	Mode workforce.Mode
	// ADPaRParallelism caps the worker count of the ADPaR engine's
	// parallel outer-candidate sweep: 0 uses GOMAXPROCS, 1 forces the
	// sequential sweep. Either way results are identical; this is purely a
	// latency/CPU trade-off.
	ADPaRParallelism int
}

// StratRec is a configured middle layer for one platform: a strategy set,
// the fitted parameter models, the optimization configuration, and the
// ADPaR serving index compiled once over the strategy set so every
// unsatisfied request is answered without re-deriving the normalized
// problem.
type StratRec struct {
	strategies strategy.Set
	models     workforce.ModelProvider
	cfg        Config
	adparIdx   *adpar.Index
}

// New validates the inputs and builds the middle layer, compiling the
// ADPaR index for the strategy set.
func New(set strategy.Set, models workforce.ModelProvider, cfg Config) (*StratRec, error) {
	if models == nil {
		return nil, errors.New("core: nil model provider")
	}
	ix, err := adpar.NewIndex(set) // validates the set
	if err != nil {
		return nil, err
	}
	ix.Parallelism = cfg.ADPaRParallelism
	return &StratRec{strategies: set, models: models, cfg: cfg, adparIdx: ix}, nil
}

// Recommendation is one satisfied deployment request.
type Recommendation struct {
	// Request is the position of the request in the batch.
	Request int
	// Strategies are the k recommended strategy IDs, cheapest first.
	Strategies []int
	// Workforce is the aggregated workforce the deployment consumes.
	Workforce float64
}

// Alternative is ADPaR's answer for one unsatisfied request.
type Alternative struct {
	// Request is the position of the request in the batch.
	Request int
	// Reason explains why the request was not satisfied.
	Reason string
	// Solution is the recommended alternative (zero-valued when ADPaR
	// itself cannot help).
	Solution adpar.Solution
	// HasSolution reports whether Solution is meaningful.
	HasSolution bool
}

// Report is the outcome of one batch recommendation round.
type Report struct {
	// Satisfied lists the served requests in selection order.
	Satisfied []Recommendation
	// Alternatives lists ADPaR recommendations for every unserved request,
	// in batch order.
	Alternatives []Alternative
	// Objective is the achieved platform objective F.
	Objective float64
	// WorkforceUsed is the total workforce consumed, out of the available
	// W.
	WorkforceUsed float64
}

// Recommend runs the Aggregator over a batch of deployment requests with
// available workforce W, and sends every unsatisfied request to ADPaR.
func (s *StratRec) Recommend(requests []strategy.Request, W float64) (Report, error) {
	if len(requests) == 0 {
		return Report{}, errors.New("core: empty request batch")
	}
	if W < 0 || W > 1 {
		return Report{}, fmt.Errorf("core: available workforce %v outside [0,1]", W)
	}
	// Step 1-2: model estimation and workforce requirement computation.
	mat, err := workforce.Compute(requests, s.strategies, s.models)
	if err != nil {
		return Report{}, err
	}
	vec := mat.Vector(requests, s.cfg.Mode)

	// Step 3: optimization-guided batch deployment.
	plan := batch.BatchStrat(batch.BuildItems(requests, vec, s.cfg.Objective), W)

	report := Report{
		Objective:     plan.Objective,
		WorkforceUsed: plan.Workforce,
	}
	for _, idx := range plan.Selected {
		report.Satisfied = append(report.Satisfied, Recommendation{
			Request:    idx,
			Strategies: plan.Recommendations[idx],
			Workforce:  vec[idx].Workforce,
		})
	}

	// ADPaR: unsatisfied requests, one by one (Section 2.2), all served from
	// the shared index compiled at construction.
	for i := range requests {
		if plan.IsSelected(i) {
			continue
		}
		alt := Alternative{Request: i}
		if !vec[i].Feasible() {
			alt.Reason = fmt.Sprintf("fewer than k=%d strategies can meet the requested parameters", requests[i].K)
		} else {
			alt.Reason = "available workforce exhausted by higher-priority requests"
		}
		if sol, err := s.adparIdx.Solve(requests[i]); err == nil {
			alt.Solution = sol
			alt.HasSolution = true
		} else {
			alt.Reason += "; ADPaR: " + err.Error()
		}
		report.Alternatives = append(report.Alternatives, alt)
	}
	return report, nil
}
