package workforce_test

import (
	"math/rand"
	"strconv"
	"testing"

	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// BenchmarkRequirementForServing times one admission's requirement at the
// serving shape: a synth catalog of 200 strategies (stratbench's durable
// workloads) or 2000 (query-open), K=3, max case, cycling through 64
// synth requests. It lives in the external test package because synth
// imports workforce.
func BenchmarkRequirementForServing(b *testing.B) {
	for _, n := range []int{200, 2000} {
		b.Run("S="+strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			gen := synth.DefaultConfig(synth.Uniform)
			set := gen.Strategies(rng, n)
			var models workforce.ModelProvider = gen.Models(rng, set)
			reqs := gen.Requests(rng, 64, 3)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				workforce.RequirementFor(reqs[i%len(reqs)], uint64(i), set, models, workforce.MaxCase)
				i++
			}
		})
	}
}
