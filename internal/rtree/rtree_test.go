package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stratrec/internal/geometry"
)

func pt(a, b, c float64) geometry.Point3 { return geometry.Point3{a, b, c} }

// search returns the IDs of all points inside rect (inclusive), in
// unspecified order, descending only into nodes whose MBB meets rect: it
// finds every point exactly when each node's MBB holds its subtree.
func (t *Tree) search(rect geometry.Rect3) []int {
	var ids []int
	if t.root == nil {
		return ids
	}
	var walk func(n *node)
	walk = func(n *node) {
		if !n.mbb.Lo.DominatedBy(rect.Hi) || !rect.Lo.DominatedBy(n.mbb.Hi) {
			return
		}
		if n.leaf {
			for _, e := range n.entries {
				if rect.Lo.DominatedBy(e.Point) && e.Point.DominatedBy(rect.Hi) {
					ids = append(ids, e.ID)
				}
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return ids
}

// height returns the tree height (0 for an empty tree, 1 for a single leaf).
func (t *Tree) height() int {
	h := 0
	for n := t.root; n != nil; {
		h++
		if n.leaf {
			break
		}
		n = n.children[0]
	}
	return h
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 || tr.height() != 0 {
		t.Errorf("empty tree Len=%d height=%d", tr.Len(), tr.height())
	}
	if ids := tr.search(geometry.Rect3{Hi: pt(1, 1, 1)}); len(ids) != 0 {
		t.Errorf("empty search = %v", ids)
	}
	visited := 0
	tr.Nodes(func(NodeInfo) bool { visited++; return true })
	if visited != 0 {
		t.Errorf("empty walk visited %d nodes", visited)
	}
}

func TestNodeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 300
	pts := make([]geometry.Point3, n)
	for i := range pts {
		pts[i] = pt(rng.Float64(), rng.Float64(), rng.Float64())
	}
	tr := BulkLoadPoints(pts)
	rootSeen := false
	tr.Nodes(func(info NodeInfo) bool {
		if info.Depth == 0 {
			rootSeen = true
			if info.Count != n {
				t.Errorf("root count = %d, want %d", info.Count, n)
			}
		}
		if !info.MBB.Lo.DominatedBy(info.MBB.Hi) {
			t.Errorf("invalid MBB %v at depth %d", info.MBB, info.Depth)
		}
		if info.Count < 1 {
			t.Errorf("node with count %d", info.Count)
		}
		// Every point counted in a subtree lies inside its MBB: verify via
		// a search restricted to the MBB.
		found := tr.search(info.MBB)
		if len(found) < info.Count {
			t.Errorf("MBB search found %d < subtree count %d", len(found), info.Count)
		}
		return true
	})
	if !rootSeen {
		t.Error("walk never visited the root")
	}
}

func TestNodesEarlyStop(t *testing.T) {
	pts := make([]geometry.Point3, 100)
	for i := range pts {
		pts[i] = pt(float64(i)/100, 0.5, 0.5)
	}
	tr := BulkLoadPoints(pts)
	visits := 0
	tr.Nodes(func(NodeInfo) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Errorf("early stop visited %d nodes, want 3", visits)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([]geometry.Point3, 50)
	for i := range pts {
		pts[i] = pt(0.5, 0.5, 0.5)
	}
	tr := BulkLoadPoints(pts)
	ids := tr.search(geometry.RectFromPoint(pt(0.5, 0.5, 0.5)))
	if len(ids) != 50 {
		t.Errorf("found %d duplicates, want 50", len(ids))
	}
}

// linearSearch is the reference the tree is validated against.
func linearSearch(pts []geometry.Point3, rect geometry.Rect3) []int {
	var ids []int
	for i, p := range pts {
		if rect.Lo.DominatedBy(p) && p.DominatedBy(rect.Hi) {
			ids = append(ids, i)
		}
	}
	return ids
}

func TestPropertyCountsSumAtLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		pts := make([]geometry.Point3, 1+rng.Intn(300))
		for i := range pts {
			pts[i] = pt(rng.Float64(), rng.Float64(), rng.Float64())
		}
		tr := BulkLoadPoints(pts)
		leafTotal := 0
		ok := true
		tr.Nodes(func(info NodeInfo) bool {
			if info.Leaf {
				leafTotal += info.Count
				if info.Count > MaxEntries {
					ok = false
				}
			}
			return true
		})
		return ok && leafTotal == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
