package rtree

import (
	"math/rand"
	"testing"

	"stratrec/internal/geometry"
)

func benchPoints(n int, seed int64) []geometry.Point3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geometry.Point3, n)
	for i := range pts {
		pts[i] = geometry.Point3{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	return pts
}

func BenchmarkBulkLoad(b *testing.B) {
	pts := benchPoints(20000, 3)
	b.ReportAllocs()
	for b.Loop() {
		BulkLoadPoints(pts)
	}
}

func BenchmarkNodesWalk(b *testing.B) {
	tr := BulkLoadPoints(benchPoints(10000, 2))
	b.ReportAllocs()
	for b.Loop() {
		count := 0
		tr.Nodes(func(NodeInfo) bool { count++; return true })
	}
}
