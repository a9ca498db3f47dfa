// Package synth generates the synthetic workloads of Section 5.2.2:
// strategy sets whose normalized dimension values follow uniform or normal
// distributions, deployment requests with thresholds in [0.625, 1], and
// per-strategy availability-response models with alpha drawn from [0.5, 1]
// and beta = 1 - alpha, "in consistence with the real data experiments".
//
// Where the paper under-specifies the generator, this package chooses:
// dimension values are interpreted in the
// Section-4 normalized smaller-is-better space (so a request threshold is
// an upper bound on every dimension), and the availability response scales
// a strategy's distance from its full-availability parameters: parameter
// p of strategy j at availability w is
//
//	p_j(w) = v_jp + alpha_jp * (1 - w) * (1 - v_jp)
//
// i.e. at w = 1 the strategy delivers its advertised value v_jp and as the
// workforce thins every parameter degrades linearly toward 1. This keeps
// the satisfaction predicate and the workforce requirement consistent: a
// strategy can possibly serve a request iff it satisfies it at full
// availability, and the requirement grows as the margin shrinks.
package synth

import (
	"fmt"
	"math/rand"

	"stratrec/internal/linmodel"
	"stratrec/internal/stats"
	"stratrec/internal/strategy"
	"stratrec/internal/workforce"
)

// Distribution selects the strategy dimension-value generator.
type Distribution int

const (
	// Uniform draws dimension values from U[StrategyLo, StrategyHi].
	Uniform Distribution = iota
	// Normal draws from N(NormalMean, NormalStd) truncated to
	// [StrategyLo, StrategyHi].
	Normal
)

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Normal:
		return "normal"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// Config holds the generator parameters. The zero value is not useful; use
// DefaultConfig.
type Config struct {
	Dist Distribution

	// StrategyLo/Hi bound normalized strategy dimension values ([0.5, 1]
	// in the paper).
	StrategyLo, StrategyHi float64
	// NormalMean/Std parameterize the normal generator (0.75 and 0.1).
	NormalMean, NormalStd float64
	// RequestLo/Hi bound normalized request thresholds ([0.625, 1]).
	RequestLo, RequestHi float64
	// ADPaRLo/Hi bound request thresholds for ADPaR instances. ADPaR is
	// exercised on requests too tight to satisfy, so these default to
	// [0, 0.5].
	ADPaRLo, ADPaRHi float64
	// AlphaLo/Hi bound the availability-response slope ([0.5, 1]).
	AlphaLo, AlphaHi float64
}

// DefaultConfig returns the Section 5.2.2 settings for a distribution.
func DefaultConfig(dist Distribution) Config {
	return Config{
		Dist:       dist,
		StrategyLo: 0.5, StrategyHi: 1,
		NormalMean: 0.75, NormalStd: 0.1,
		RequestLo: 0.625, RequestHi: 1,
		ADPaRLo: 0, ADPaRHi: 0.5,
		AlphaLo: 0.5, AlphaHi: 1,
	}
}

// dimValue draws one normalized dimension value.
func (c Config) dimValue(rng *rand.Rand) float64 {
	if c.Dist == Normal {
		return stats.TruncNormal(rng, c.NormalMean, c.NormalStd, c.StrategyLo, c.StrategyHi)
	}
	return stats.Uniform(rng, c.StrategyLo, c.StrategyHi)
}

// Strategies generates n strategies. Dimension values are drawn in the
// normalized space and converted back to original parameters (quality is
// de-inverted); the Structure/Organization/Style labels cycle through the
// eight combinations.
func (c Config) Strategies(rng *rand.Rand, n int) strategy.Set {
	dims := strategy.AllDimensions()
	set := make(strategy.Set, n)
	for i := 0; i < n; i++ {
		v0, v1, v2 := c.dimValue(rng), c.dimValue(rng), c.dimValue(rng)
		set[i] = strategy.Strategy{
			ID:     i,
			Dims:   dims[i%len(dims)],
			Params: strategy.Params{Quality: 1 - v0, Cost: v1, Latency: v2},
		}
	}
	return set
}

// Requests generates m deployment requests with cardinality constraint k,
// thresholds drawn from U[RequestLo, RequestHi] in normalized space.
func (c Config) Requests(rng *rand.Rand, m, k int) []strategy.Request {
	return c.requestsIn(rng, m, k, c.RequestLo, c.RequestHi)
}

// ADPaRRequest generates one deliberately tight request (thresholds in
// U[ADPaRLo, ADPaRHi]) of the kind that falls through to the ADPaR module.
func (c Config) ADPaRRequest(rng *rand.Rand, k int) strategy.Request {
	return c.requestsIn(rng, 1, k, c.ADPaRLo, c.ADPaRHi)[0]
}

func (c Config) requestsIn(rng *rand.Rand, m, k int, lo, hi float64) []strategy.Request {
	reqs := make([]strategy.Request, m)
	for i := range reqs {
		u0 := stats.Uniform(rng, lo, hi)
		u1 := stats.Uniform(rng, lo, hi)
		u2 := stats.Uniform(rng, lo, hi)
		reqs[i] = strategy.Request{
			ID:     fmt.Sprintf("d%d", i+1),
			Params: strategy.Params{Quality: 1 - u0, Cost: u1, Latency: u2},
			K:      k,
		}
	}
	return reqs
}

// Models generates the per-strategy availability-response models for a
// generated set. For every parameter p with full-availability value v (in
// normalized space), the response p(w) = v + alpha*(1-w)*(1-v) converts to
// the original space as documented in the package comment.
func (c Config) Models(rng *rand.Rand, set strategy.Set) workforce.PerStrategyModels {
	models := make(workforce.PerStrategyModels, len(set))
	for i, s := range set {
		models[i] = linmodel.ParamModels{
			Quality: qualityResponse(s.Quality, stats.Uniform(rng, c.AlphaLo, c.AlphaHi)),
			Cost:    degradingResponse(s.Cost, stats.Uniform(rng, c.AlphaLo, c.AlphaHi)),
			Latency: degradingResponse(s.Latency, stats.Uniform(rng, c.AlphaLo, c.AlphaHi)),
		}
	}
	return models
}

// qualityResponse maps a full-availability quality q1 to an increasing
// model: in normalized space the inverted quality degrades toward 1 as w
// falls, so quality(w) = q1*(1 - alpha*(1-w)) = q1*alpha*w + q1*(1-alpha).
func qualityResponse(q1, alpha float64) linmodel.Model {
	return linmodel.Model{Alpha: q1 * alpha, Beta: q1 * (1 - alpha)}
}

// degradingResponse maps a full-availability value v (cost or latency,
// lower-is-better) to a decreasing model: v(w) = v + alpha*(1-w)*(1-v),
// i.e. Alpha = -alpha*(1-v), Beta = v + alpha*(1-v).
func degradingResponse(v, alpha float64) linmodel.Model {
	return linmodel.Model{Alpha: -alpha * (1 - v), Beta: v + alpha*(1-v)}
}

// Instance is a complete synthetic batch-deployment instance.
type Instance struct {
	Strategies strategy.Set
	Requests   []strategy.Request
	Models     workforce.PerStrategyModels
}

// Instance generates a full batch instance with n strategies, m requests
// and cardinality constraint k.
func (c Config) Instance(rng *rand.Rand, n, m, k int) Instance {
	set := c.Strategies(rng, n)
	return Instance{
		Strategies: set,
		Requests:   c.Requests(rng, m, k),
		Models:     c.Models(rng, set),
	}
}
