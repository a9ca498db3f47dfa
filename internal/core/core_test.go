package core

import (
	"math"
	"math/rand"
	"testing"

	"stratrec/internal/batch"
	"stratrec/internal/linmodel"
	"stratrec/internal/strategy"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// paperModels builds per-strategy models that reproduce the Table 1
// parameters at W = 0.8 (the running example's expected availability), with
// quality improving, and cost/latency falling as availability grows.
func paperModels(set strategy.Set) workforce.PerStrategyModels {
	const w0 = 0.8
	models := make(workforce.PerStrategyModels, len(set))
	for i, s := range set {
		// quality(w) = qAlpha*w + qBeta with quality(w0) = s.Quality.
		qAlpha := s.Quality * 0.4
		models[i] = linmodel.ParamModels{
			Quality: linmodel.Model{Alpha: qAlpha, Beta: s.Quality - qAlpha*w0},
			Cost:    linmodel.Model{Alpha: -0.1, Beta: s.Cost + 0.1*w0},
			Latency: linmodel.Model{Alpha: -0.3, Beta: s.Latency + 0.3*w0},
		}
	}
	return models
}

func TestNewValidation(t *testing.T) {
	set := strategy.PaperExampleStrategies()
	if _, err := New(strategy.Set{}, paperModels(set), Config{}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := New(set, nil, Config{}); err == nil {
		t.Error("nil models accepted")
	}
	if _, err := New(set, paperModels(set), Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestRecommendValidation(t *testing.T) {
	set := strategy.PaperExampleStrategies()
	sr, err := New(set, paperModels(set), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Recommend(nil, 0.8); err == nil {
		t.Error("empty batch accepted")
	}
	reqs := strategy.PaperExampleRequests()
	if _, err := sr.Recommend(reqs, 1.5); err == nil {
		t.Error("W > 1 accepted")
	}
	if _, err := sr.Recommend(reqs, -0.1); err == nil {
		t.Error("W < 0 accepted")
	}
}

// TestPaperRunningExample is the Section 2.2 walk-through: with W = 0.8,
// only d3 is fully served (with s2, s3, s4); d1 and d2 fall through to
// ADPaR and receive alternative parameters.
func TestPaperRunningExample(t *testing.T) {
	set := strategy.PaperExampleStrategies()
	sr, err := New(set, paperModels(set), Config{Objective: batch.Throughput, Mode: workforce.MaxCase})
	if err != nil {
		t.Fatal(err)
	}
	reqs := strategy.PaperExampleRequests()
	report, err := sr.Recommend(reqs, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Satisfied) != 1 || report.Satisfied[0].Request != 2 {
		t.Fatalf("satisfied = %+v, want only d3 (index 2)", report.Satisfied)
	}
	rec := report.Satisfied[0].Strategies
	if len(rec) != 3 {
		t.Fatalf("d3 recommendations = %v", rec)
	}
	got := map[int]bool{}
	for _, id := range rec {
		got[id] = true
	}
	if !got[1] || !got[2] || !got[3] {
		t.Errorf("d3 strategies = %v, want {s2, s3, s4}", rec)
	}

	if len(report.Alternatives) != 2 {
		t.Fatalf("alternatives = %+v", report.Alternatives)
	}
	for _, alt := range report.Alternatives {
		if alt.Request != 0 && alt.Request != 1 {
			t.Errorf("alternative for request %d", alt.Request)
		}
		if !alt.HasSolution {
			t.Errorf("request %d got no ADPaR solution: %s", alt.Request, alt.Reason)
		}
		if len(alt.Solution.Covered) < reqs[alt.Request].K {
			t.Errorf("request %d alternative covers %d < k", alt.Request, len(alt.Solution.Covered))
		}
	}
	// d1's ADPaR answer is the Section 2.3 example (0.4, 0.5, 0.28).
	d1alt := report.Alternatives[0].Solution.Alternative
	if math.Abs(d1alt.Cost-0.5) > 1e-9 || math.Abs(d1alt.Quality-0.4) > 1e-9 || math.Abs(d1alt.Latency-0.28) > 1e-9 {
		t.Errorf("d1 alternative = %+v, want (0.4, 0.5, 0.28)", d1alt)
	}
}

func TestObjectiveAccountsPayoff(t *testing.T) {
	set := strategy.PaperExampleStrategies()
	sr, err := New(set, paperModels(set), Config{Objective: batch.Payoff, Mode: workforce.MaxCase})
	if err != nil {
		t.Fatal(err)
	}
	report, err := sr.Recommend(strategy.PaperExampleRequests(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Only d3 is satisfiable; the pay-off objective is its cost threshold.
	if math.Abs(report.Objective-0.83) > 1e-9 {
		t.Errorf("payoff objective = %v, want 0.83", report.Objective)
	}
}

// TestEndToEndSynthetic runs the full middle layer on a synthetic batch and
// checks the structural invariants: satisfied + alternatives partition the
// batch, recommended strategies satisfy their requests at the consumed
// workforce, and the workforce budget holds.
func TestEndToEndSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cfg := synth.DefaultConfig(synth.Uniform)
	inst := cfg.Instance(rng, 300, 12, 3)
	sr, err := New(inst.Strategies, inst.Models, Config{Objective: batch.Throughput, Mode: workforce.MaxCase})
	if err != nil {
		t.Fatal(err)
	}
	const W = 0.6
	report, err := sr.Recommend(inst.Requests, W)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Satisfied)+len(report.Alternatives) != len(inst.Requests) {
		t.Fatalf("partition broken: %d + %d != %d",
			len(report.Satisfied), len(report.Alternatives), len(inst.Requests))
	}
	if report.WorkforceUsed > W+1e-9 {
		t.Errorf("workforce used %v > %v", report.WorkforceUsed, W)
	}
	for _, rec := range report.Satisfied {
		d := inst.Requests[rec.Request]
		if len(rec.Strategies) != d.K {
			t.Errorf("request %d got %d strategies, want %d", rec.Request, len(rec.Strategies), d.K)
		}
		for _, id := range rec.Strategies {
			// Every recommended strategy must meet the thresholds at some
			// availability within the consumed workforce.
			req := inst.Models.Models(uint64(rec.Request), id).Requirement(d.Params)
			if math.IsInf(req, 1) {
				t.Errorf("request %d recommended infeasible strategy %d", rec.Request, id)
			}
			if req > rec.Workforce+1e-9 {
				t.Errorf("request %d strategy %d needs %v > allocated %v", rec.Request, id, req, rec.Workforce)
			}
		}
	}
	for _, alt := range report.Alternatives {
		if alt.HasSolution && len(alt.Solution.Covered) < inst.Requests[alt.Request].K {
			t.Errorf("request %d alternative under-covers", alt.Request)
		}
	}
}
