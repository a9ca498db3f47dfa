package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"stratrec/internal/geometry"
)

func TestBulkLoadEmpty(t *testing.T) {
	tr := BulkLoad(nil)
	if tr.Len() != 0 || tr.height() != 0 {
		t.Errorf("empty bulk load: Len=%d height=%d", tr.Len(), tr.height())
	}
}

func TestBulkLoadSmall(t *testing.T) {
	pts := []geometry.Point3{
		pt(0.1, 0.1, 0.1), pt(0.9, 0.9, 0.9), pt(0.5, 0.5, 0.5),
	}
	tr := BulkLoadPoints(pts)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	ids := tr.search(geometry.Rect3{Lo: pt(0, 0, 0), Hi: pt(1, 1, 1)})
	if len(ids) != 3 {
		t.Errorf("full search found %d", len(ids))
	}
}

func TestBulkLoadInputNotMutated(t *testing.T) {
	entries := []Entry{
		{Point: pt(0.9, 0.1, 0.2), ID: 0},
		{Point: pt(0.1, 0.8, 0.3), ID: 1},
	}
	orig := append([]Entry(nil), entries...)
	BulkLoad(entries)
	for i := range entries {
		if entries[i] != orig[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

func TestBulkLoadNodeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 2000
	pts := make([]geometry.Point3, n)
	for i := range pts {
		pts[i] = pt(rng.Float64(), rng.Float64(), rng.Float64())
	}
	tr := BulkLoadPoints(pts)
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	leafTotal := 0
	tr.Nodes(func(info NodeInfo) bool {
		if !info.MBB.Lo.DominatedBy(info.MBB.Hi) {
			t.Errorf("invalid MBB at depth %d", info.Depth)
		}
		if info.Leaf {
			leafTotal += info.Count
			if info.Count > MaxEntries {
				t.Errorf("overfull leaf: %d", info.Count)
			}
		}
		return true
	})
	if leafTotal != n {
		t.Errorf("leaf total = %d, want %d", leafTotal, n)
	}
}

func TestPropertyBulkLoadSearchMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		n := 1 + rng.Intn(300)
		pts := make([]geometry.Point3, n)
		for i := range pts {
			pts[i] = pt(rng.Float64(), rng.Float64(), rng.Float64())
		}
		tr := BulkLoadPoints(pts)
		for q := 0; q < 4; q++ {
			a := pt(rng.Float64(), rng.Float64(), rng.Float64())
			b := pt(rng.Float64(), rng.Float64(), rng.Float64())
			rect := geometry.Rect3{Lo: a.Min(b), Hi: a.Max(b)}
			got := tr.search(rect)
			want := linearSearch(pts, rect)
			sort.Ints(got)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
