package workforce

import (
	"math/rand"
	"strconv"
	"testing"

	"stratrec/internal/linmodel"
	"stratrec/internal/strategy"
)

func benchSetup(m, n int, seed int64) ([]strategy.Request, strategy.Set, PerStrategyModels) {
	rng := rand.New(rand.NewSource(seed))
	set := make(strategy.Set, n)
	models := make(PerStrategyModels, n)
	for j := range set {
		set[j] = strategy.Strategy{ID: j, Params: strategy.Params{Quality: 0.8, Cost: 0.3, Latency: 0.3}}
		models[j] = linmodel.ParamModels{
			Quality: linmodel.Model{Alpha: 0.3 + 0.7*rng.Float64(), Beta: 0.2},
			Cost:    linmodel.Model{Alpha: 0.1, Beta: 0.1},
			Latency: linmodel.Model{Alpha: -0.5, Beta: 0.9},
		}
	}
	reqs := make([]strategy.Request, m)
	for i := range reqs {
		reqs[i] = strategy.Request{
			ID:     "d" + strconv.Itoa(i),
			Params: strategy.Params{Quality: 0.4 + 0.4*rng.Float64(), Cost: 0.9, Latency: 0.9},
			K:      10,
		}
	}
	return reqs, set, models
}

func BenchmarkComputeMatrix(b *testing.B) {
	for _, size := range []struct{ m, n int }{{10, 1000}, {100, 1000}, {10, 100000}} {
		reqs, set, models := benchSetup(size.m, size.n, int64(size.n))
		b.Run("m="+strconv.Itoa(size.m)+"/S="+strconv.Itoa(size.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(reqs, set, models); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAggregate(b *testing.B) {
	reqs, set, models := benchSetup(10, 100000, 7)
	mat, err := Compute(reqs, set, models)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.Aggregate(0, 10, SumCase)
	}
}

func BenchmarkRequirementForStreaming(b *testing.B) {
	reqs, set, models := benchSetup(1, 100000, 9)
	b.ReportAllocs()
	for b.Loop() {
		RequirementFor(reqs[0], 0, set, models, MaxCase)
	}
}
