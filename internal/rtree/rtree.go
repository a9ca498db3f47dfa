// Package rtree is a static 3-D R-tree over points, the space-partitioning
// substrate behind ADPaR's Baseline3 (Section 5.2.1, "designed by modifying
// space partitioning data structure R-Tree"). A tree is bulk loaded once
// (Sort-Tile-Recursive packing) and exposes a node walker reporting every
// minimum bounding box together with its subtree point count — the
// traversal Baseline3 scans for a k-point MBB.
package rtree

import (
	"stratrec/internal/geometry"
)

// MaxEntries is the node fan-out M.
const MaxEntries = 8

// Tree is an R-tree over 3-D points carrying integer data IDs.
type Tree struct {
	root *node
	size int
}

// Entry is one indexed point.
type Entry struct {
	Point geometry.Point3
	ID    int
}

type node struct {
	leaf     bool
	mbb      geometry.Rect3
	entries  []Entry // leaf payload
	children []*node // internal payload
	count    int     // points in subtree
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// refit recomputes mbb and count from current payload.
func (n *node) refit() {
	if n.leaf {
		n.count = len(n.entries)
		if n.count == 0 {
			n.mbb = geometry.Rect3{}
			return
		}
		n.mbb = geometry.RectFromPoint(n.entries[0].Point)
		for _, e := range n.entries[1:] {
			n.mbb = n.mbb.Extend(e.Point)
		}
		return
	}
	n.count = 0
	for i, c := range n.children {
		n.count += c.count
		if i == 0 {
			n.mbb = c.mbb
		} else {
			n.mbb = n.mbb.Union(c.mbb)
		}
	}
}

// NodeInfo describes one tree node for callers scanning MBBs.
type NodeInfo struct {
	MBB   geometry.Rect3
	Count int // points in the node's subtree
	Leaf  bool
	Depth int
}

// Nodes visits every node in depth-first order, reporting its MBB and
// subtree count. Baseline3 uses this to find an MBB containing exactly k
// strategies. Returning false from fn stops the walk.
func (t *Tree) Nodes(fn func(NodeInfo) bool) {
	if t.root == nil {
		return
	}
	var walk func(n *node, depth int) bool
	walk = func(n *node, depth int) bool {
		if !fn(NodeInfo{MBB: n.mbb, Count: n.count, Leaf: n.leaf, Depth: depth}) {
			return false
		}
		if !n.leaf {
			for _, c := range n.children {
				if !walk(c, depth+1) {
					return false
				}
			}
		}
		return true
	}
	walk(t.root, 0)
}
