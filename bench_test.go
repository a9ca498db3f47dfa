// Package bench is the paper-reproduction benchmark harness: one benchmark
// per table and figure of the evaluation section (`experiments -list`
// names them). Each benchmark regenerates the corresponding artifact
// through internal/experiments, or times the underlying algorithm directly
// where the paper reports running time (Figure 18).
//
// Run with:
//
//	go test -bench=. -benchmem
package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"stratrec/internal/adpar"
	"stratrec/internal/batch"
	"stratrec/internal/experiments"
	"stratrec/internal/server"
	"stratrec/internal/strategy"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// benchCfg keeps per-iteration work bounded; the full-scale numbers come
// from cmd/experiments.
func benchCfg() experiments.Config {
	return experiments.Config{Seed: 2020, Short: true, Runs: 1}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Example regenerates the running-example table and its
// satisfaction check.
func BenchmarkTable1Example(b *testing.B) { runExperiment(b, "table-1") }

// BenchmarkADPaRTrace regenerates Tables 2-5, the ADPaR-Exact walk-through
// on d2.
func BenchmarkADPaRTrace(b *testing.B) { runExperiment(b, "tables-2-5") }

// BenchmarkFigure11Availability regenerates the worker-availability
// estimation figure.
func BenchmarkFigure11Availability(b *testing.B) { runExperiment(b, "figure-11") }

// BenchmarkFigure12Relationship regenerates the availability-vs-parameters
// panels.
func BenchmarkFigure12Relationship(b *testing.B) { runExperiment(b, "figure-12") }

// BenchmarkTable6Fit regenerates the (alpha, beta) estimation table.
func BenchmarkTable6Fit(b *testing.B) { runExperiment(b, "table-6") }

// BenchmarkFigure13Effectiveness regenerates the with/without-StratRec
// comparison.
func BenchmarkFigure13Effectiveness(b *testing.B) { runExperiment(b, "figure-13") }

// BenchmarkFigure14Satisfied regenerates the satisfied-request sweeps.
func BenchmarkFigure14Satisfied(b *testing.B) { runExperiment(b, "figure-14") }

// BenchmarkFigure15Throughput regenerates the throughput comparison.
func BenchmarkFigure15Throughput(b *testing.B) { runExperiment(b, "figure-15") }

// BenchmarkFigure16Payoff regenerates the pay-off comparison with
// approximation factors.
func BenchmarkFigure16Payoff(b *testing.B) { runExperiment(b, "figure-16") }

// BenchmarkFigure17ADPaRQuality regenerates the ADPaR distance comparison.
func BenchmarkFigure17ADPaRQuality(b *testing.B) { runExperiment(b, "figure-17") }

// --- Figure 18: the paper reports running times, so these benchmarks time
// the algorithms directly at the paper's parameter points. ---

// batchItems builds m feasible optimization items directly, isolating the
// timing comparison to the optimizers themselves.
func batchItems(rng *rand.Rand, m int) []batch.Item {
	items := make([]batch.Item, m)
	for i := range items {
		items[i] = batch.Item{
			Index:     i,
			Value:     0.625 + 0.375*rng.Float64(),
			Workforce: rng.Float64() * 0.1,
		}
	}
	return items
}

// BenchmarkFigure18aBatchScalability times BruteForce (exponential; small
// m) against BatchStrat (linear; the paper's m range).
func BenchmarkFigure18aBatchScalability(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	for _, m := range []int{10, 14, 18} {
		items := batchItems(rng, m)
		b.Run("BruteForce/m="+strconv.Itoa(m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := batch.BruteForce(items, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, m := range []int{200, 400, 600, 800} {
		items := batchItems(rng, m)
		b.Run("BatchStrat/m="+strconv.Itoa(m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch.BatchStrat(items, 0.5)
			}
		})
	}
}

func adparInstance(rng *rand.Rand, n, k int) (strategy.Set, strategy.Request) {
	cfg := synth.DefaultConfig(synth.Uniform)
	set := cfg.Strategies(rng, n)
	return set, cfg.ADPaRRequest(rng, k)
}

// BenchmarkFigure18bADPaRStrategies times ADPaR-Exact at the paper's
// strategy-set sizes (k = 5).
func BenchmarkFigure18bADPaRStrategies(b *testing.B) {
	for _, n := range []int{1000, 5000, 25000} {
		rng := rand.New(rand.NewSource(int64(n)))
		set, d := adparInstance(rng, n, 5)
		b.Run("S="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := adpar.Exact(set, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure18cADPaRK times ADPaR-Exact at the paper's cardinality
// constraints (|S| = 10000).
func BenchmarkFigure18cADPaRK(b *testing.B) {
	for _, k := range []int{10, 50, 250} {
		rng := rand.New(rand.NewSource(int64(k)))
		set, d := adparInstance(rng, 10000, k)
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := adpar.Exact(set, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Amortized serving engine: the same Figure-18 parameter points served
// through a warm adpar.Index, quantifying what the per-request compilation
// costs and what the parallel sweep adds. ---

// BenchmarkIndexedADPaR times warm-index sequential serving: the index is
// compiled once per parameter point and every iteration is one request
// against it — the steady state of the online StratRec setting.
func BenchmarkIndexedADPaR(b *testing.B) {
	// Seeds match BenchmarkFigure18bADPaRStrategies (seed = n) and
	// BenchmarkFigure18cADPaRK (seed = k) so warm-index numbers compare
	// apples-to-apples against the per-request Exact path on the very same
	// instances.
	points := []struct {
		n, k int
		seed int64
	}{
		{1000, 5, 1000}, {5000, 5, 5000}, {25000, 5, 25000}, // Figure 18b sweep (k = 5)
		{10000, 10, 10}, {10000, 50, 50}, {10000, 250, 250}, // Figure 18c sweep (|S| = 10000)
	}
	for _, pt := range points {
		rng := rand.New(rand.NewSource(pt.seed))
		set, d := adparInstance(rng, pt.n, pt.k)
		ix, err := adpar.NewIndex(set)
		if err != nil {
			b.Fatal(err)
		}
		ix.Parallelism = 1
		b.Run("S="+strconv.Itoa(pt.n)+"/k="+strconv.Itoa(pt.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Solve(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Multi-tenant serving: end-to-end HTTP latency of the stratrec serve
// subsystem, the online regime the warm index was built for. ---

// benchServer hosts two synthetic tenants over httptest for the lifetime
// of the benchmark.
func benchServer(b *testing.B, strategies int) *httptest.Server {
	b.Helper()
	gen := synth.DefaultConfig(synth.Uniform)
	tenants := map[string]server.TenantConfig{}
	for i, name := range []string{"alpha", "beta"} {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		set := gen.Strategies(rng, strategies)
		tenants[name] = server.TenantConfig{
			Set: set, Models: gen.Models(rng, set),
			Mode: workforce.MaxCase, Objective: batch.Throughput,
			InitialW: 0.7,
		}
	}
	s, err := server.New(server.Config{Tenants: tenants})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return hs
}

// BenchmarkServeSubmitRevoke times one submit+revoke round trip through
// the full HTTP stack: JSON decode, event-loop hop, BatchStrat replan,
// view publish, JSON encode — twice. The open pool stays bounded, so
// per-op cost is the steady state, not pool growth.
func BenchmarkServeSubmitRevoke(b *testing.B) {
	hs := benchServer(b, 200)
	client := hs.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tenant := []string{"alpha", "beta"}[i%2]
		id := "r" + strconv.Itoa(i)
		body, _ := json.Marshal(server.SubmitRequest{
			ID: id, Quality: 0.4, Cost: 0.6, Latency: 0.6, K: 3,
		})
		resp, err := client.Post(hs.URL+"/v1/tenants/"+tenant+"/requests", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/tenants/"+tenant+"/requests/"+id, nil)
		resp, err = client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkServePlanRead times the lock-free read path: an atomic snapshot
// load plus JSON encoding, with 100 open requests in the plan.
func BenchmarkServePlanRead(b *testing.B) {
	hs := benchServer(b, 200)
	client := hs.Client()
	gen := synth.DefaultConfig(synth.Uniform)
	rng := rand.New(rand.NewSource(9))
	for i, d := range gen.Requests(rng, 100, 3) {
		d.ID = "r" + strconv.Itoa(i)
		body, _ := json.Marshal(server.SubmitRequest{
			ID: d.ID, Quality: d.Quality, Cost: d.Cost, Latency: d.Latency, K: d.K,
		})
		resp, err := client.Post(hs.URL+"/v1/tenants/alpha/requests", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(hs.URL + "/v1/tenants/alpha/plan")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkParallelADPaR times the warm index with the parallel outer sweep
// forced to GOMAXPROCS workers at the Figure-18c points. On a single-CPU
// host this quantifies the coordination overhead rather than a speedup.
func BenchmarkParallelADPaR(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for _, k := range []int{10, 50, 250} {
		rng := rand.New(rand.NewSource(int64(k)))
		set, d := adparInstance(rng, 10000, k)
		ix, err := adpar.NewIndex(set)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("k="+strconv.Itoa(k)+"/workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ix.SolveParallel(d, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
