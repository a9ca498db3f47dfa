package linmodel

import (
	"math"
	"math/rand"
	"testing"

	"stratrec/internal/strategy"
)

// referenceRequirement is the requirement as the composition of the
// per-parameter feasible intervals, the form the fused Requirement kernel
// must reproduce bit for bit.
func referenceRequirement(pm ParamModels, d strategy.Params) float64 {
	iv := pm.FeasibleInterval(d)
	if iv.Empty() {
		return Infeasible
	}
	return iv.Lo
}

// checkRequirementBits fails t unless Requirement and the
// FeasibleInterval composition agree bit for bit on (pm, d).
func checkRequirementBits(t *testing.T, pm ParamModels, d strategy.Params) {
	t.Helper()
	got, want := pm.Requirement(d), referenceRequirement(pm, d)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Requirement(%+v) on %+v = %v (%#x), FeasibleInterval composition %v (%#x)",
			d, pm, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// finiteValue draws from a mix that reaches every branch of the kernel:
// signed zeros, a coarse grid (so thresholds land exactly on a model's
// end points), values in the normalized range, and the extremes of the
// finite doubles, where crossing arithmetic overflows or underflows.
func finiteValue(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return math.Copysign(0, float64(rng.Intn(2)*2-1))
	case 1:
		return float64(rng.Intn(9)-4) / 4
	case 2:
		extremes := []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, 1e300, 1 + 0x1p-52, 1 - 0x1p-53}
		return math.Copysign(extremes[rng.Intn(len(extremes))], float64(rng.Intn(2)*2-1))
	default:
		return 3*rng.Float64() - 1
	}
}

// TestRequirementMatchesFeasibleInterval: the fused kernel returns the
// same bits as the FeasibleInterval composition on random finite models
// and thresholds, ±0 coefficients and thresholds included.
func TestRequirementMatchesFeasibleInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500000; i++ {
		pm := ParamModels{
			Quality: Model{Alpha: finiteValue(rng), Beta: finiteValue(rng)},
			Cost:    Model{Alpha: finiteValue(rng), Beta: finiteValue(rng)},
			Latency: Model{Alpha: finiteValue(rng), Beta: finiteValue(rng)},
		}
		d := strategy.Params{Quality: finiteValue(rng), Cost: finiteValue(rng), Latency: finiteValue(rng)}
		checkRequirementBits(t, pm, d)
	}
}

// FuzzRequirement holds the fused kernel to the FeasibleInterval
// composition, bit for bit, over arbitrary finite coefficients and
// thresholds. Non-finite inputs are outside the kernel's domain (JSON
// cannot carry them) and are skipped.
func FuzzRequirement(f *testing.F) {
	seq := tableSeqIndCro()
	f.Add(seq.Quality.Alpha, seq.Quality.Beta, seq.Cost.Alpha, seq.Cost.Beta, seq.Latency.Alpha, seq.Latency.Beta, 0.9, 0.95, 0.7)
	f.Add(seq.Quality.Alpha, seq.Quality.Beta, seq.Cost.Alpha, seq.Cost.Beta, seq.Latency.Alpha, seq.Latency.Beta, 0.9, 0.30, 0.7)
	f.Add(0.5, 0.5, 0.0, 0.0, -0.5, 1.0, 0.5, math.Copysign(0, -1), 1.0)
	f.Add(-0.25, 0.25, 0.25, -0.25, 0.0, 0.0, 0.25, 0.0, 0.0)
	f.Add(math.MaxFloat64, -math.MaxFloat64, 1e-300, 1.0, -1e300, 0.5, 1.0, 0.5, 0.5)
	f.Fuzz(func(t *testing.T, qa, qb, ca, cb, la, lb, dq, dc, dl float64) {
		for _, v := range []float64{qa, qb, ca, cb, la, lb, dq, dc, dl} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		checkRequirementBits(t, ParamModels{
			Quality: Model{Alpha: qa, Beta: qb},
			Cost:    Model{Alpha: ca, Beta: cb},
			Latency: Model{Alpha: la, Beta: lb},
		}, strategy.Params{Quality: dq, Cost: dc, Latency: dl})
	})
}
