package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"stratrec/internal/batch"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// BenchmarkRevokeStorm measures the revoke path under churn: a large open
// pool drained in random order. Before the ID→position order index this
// was a linear scan + slice splice per revoke (quadratic over the storm);
// with tombstones + amortized compaction each revoke's pool bookkeeping is
// O(1) amortized, leaving the replan itself as the dominant cost.
func BenchmarkRevokeStorm(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("pool=%d", n), func(b *testing.B) {
			gen := synth.DefaultConfig(synth.Uniform)
			rng := rand.New(rand.NewSource(7))
			set := gen.Strategies(rng, 32)
			models := gen.Models(rng, set)
			reqs := gen.Requests(rng, n, 3)
			perm := rand.New(rand.NewSource(11)).Perm(n)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := NewManager(set, models, workforce.MaxCase, batch.Throughput, 0.7)
				if err != nil {
					b.Fatal(err)
				}
				for j := range reqs {
					reqs[j].ID = fmt.Sprintf("d%d", j)
					if _, err := m.Submit(reqs[j]); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, j := range perm {
					if err := m.Revoke(fmt.Sprintf("d%d", j)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkRevokeOnly isolates the pool bookkeeping from the replan: the
// manager uses a one-strategy catalog so replanning is trivially cheap and
// the order-index cost dominates.
func BenchmarkRevokeOnly(b *testing.B) {
	const n = 5000
	gen := synth.DefaultConfig(synth.Uniform)
	rng := rand.New(rand.NewSource(7))
	set := gen.Strategies(rng, 1)
	models := gen.Models(rng, set)
	reqs := gen.Requests(rng, n, 1)
	perm := rand.New(rand.NewSource(11)).Perm(n)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := NewManager(set, models, workforce.MaxCase, batch.Throughput, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		for j := range reqs {
			reqs[j].ID = fmt.Sprintf("d%d", j)
			if _, err := m.Submit(reqs[j]); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for _, j := range perm {
			if err := m.Revoke(fmt.Sprintf("d%d", j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPublish measures what the tenant loop pays per cycle at three
// pool sizes: one 32-op Begin/Commit cycle (16 submits, 16 revokes of
// the oldest requests, so the pool holds its size) followed by Publish.
// Beside it, snapshot times a cold View.Snapshot() over the same pool —
// the full copy only a ?view=full read still builds.
func BenchmarkPublish(b *testing.B) {
	for _, n := range []int{500, 2000, 10000} {
		gen := synth.DefaultConfig(synth.Uniform)
		rng := rand.New(rand.NewSource(7))
		set := gen.Strategies(rng, 200)
		models := gen.Models(rng, set)
		reqs := gen.Requests(rng, 4096, 3)
		m, err := NewManager(set, models, workforce.MaxCase, batch.Throughput, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		var open []string
		next := 0
		submit := func() {
			d := reqs[next%len(reqs)]
			d.ID = fmt.Sprintf("d%d", next)
			next++
			if _, err := m.Submit(d); err != nil {
				b.Fatal(err)
			}
			open = append(open, d.ID)
		}
		for len(open) < n {
			submit()
		}
		b.Run(fmt.Sprintf("cycle/pool=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				m.Begin()
				for j := 0; j < 16; j++ {
					submit()
					if err := m.Revoke(open[0]); err != nil {
						b.Fatal(err)
					}
					open = open[1:]
				}
				m.Commit()
				published = m.Publish()
			}
		})
		b.Run(fmt.Sprintf("snapshot/pool=%d", n), func(b *testing.B) {
			v := m.Publish()
			b.ReportAllocs()
			for b.Loop() {
				snapshot = v.Snapshot()
			}
		})
	}
}

var (
	published *View
	snapshot  *Snapshot
)
