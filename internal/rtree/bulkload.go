package rtree

import (
	"math"
	"sort"

	"stratrec/internal/geometry"
)

// This file implements Sort-Tile-Recursive (STR) bulk loading (Leutenegger
// et al.): packing a static point set into a near-full R-tree in one pass.
// Baseline3 builds its index over the whole strategy catalog up front, so
// one sort-and-slice construction whose leaves are ~100% full is all the
// tree needs.

// BulkLoad builds a tree from entries using STR packing. The input slice is
// not modified. An empty input yields an empty tree.
func BulkLoad(entries []Entry) *Tree {
	t := New()
	if len(entries) == 0 {
		return t
	}
	work := make([]Entry, len(entries))
	copy(work, entries)
	leaves := packLeaves(work)
	t.size = len(entries)
	t.root = buildUp(leaves)
	return t
}

// packLeaves tiles the points into leaves of up to MaxEntries each: sort by
// x, slice into vertical slabs of ~sqrt-balanced size, sort each slab by y,
// slice again, then fill leaves in z order.
func packLeaves(entries []Entry) []*node {
	n := len(entries)
	leafCount := (n + MaxEntries - 1) / MaxEntries
	// Slabs per axis: ceil(leafCount^(1/3)) tiles in x, then per slab
	// ceil((leaves in slab)^(1/2)) in y, filling z runs last.
	sx := int(math.Ceil(math.Cbrt(float64(leafCount))))
	if sx < 1 {
		sx = 1
	}
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].Point[0] < entries[b].Point[0] })
	perSlabX := (n + sx - 1) / sx
	var leaves []*node
	for xs := 0; xs < n; xs += perSlabX {
		xe := xs + perSlabX
		if xe > n {
			xe = n
		}
		slab := entries[xs:xe]
		slabLeaves := (len(slab) + MaxEntries - 1) / MaxEntries
		sy := int(math.Ceil(math.Sqrt(float64(slabLeaves))))
		if sy < 1 {
			sy = 1
		}
		sort.SliceStable(slab, func(a, b int) bool { return slab[a].Point[1] < slab[b].Point[1] })
		perSlabY := (len(slab) + sy - 1) / sy
		for ys := 0; ys < len(slab); ys += perSlabY {
			ye := ys + perSlabY
			if ye > len(slab) {
				ye = len(slab)
			}
			run := slab[ys:ye]
			sort.SliceStable(run, func(a, b int) bool { return run[a].Point[2] < run[b].Point[2] })
			for zs := 0; zs < len(run); zs += MaxEntries {
				ze := zs + MaxEntries
				if ze > len(run) {
					ze = len(run)
				}
				leaf := &node{leaf: true, entries: append([]Entry(nil), run[zs:ze]...)}
				leaf.refit()
				leaves = append(leaves, leaf)
			}
		}
	}
	return leaves
}

// buildUp packs a node level into parent nodes until one root remains. The
// level is already in spatially coherent order from the STR tiling, so
// consecutive grouping keeps parents tight.
func buildUp(level []*node) *node {
	for len(level) > 1 {
		var parents []*node
		for i := 0; i < len(level); i += MaxEntries {
			j := i + MaxEntries
			if j > len(level) {
				j = len(level)
			}
			p := &node{leaf: false, children: append([]*node(nil), level[i:j]...)}
			p.refit()
			parents = append(parents, p)
		}
		level = parents
	}
	return level[0]
}

// BulkLoadPoints is a convenience wrapper assigning IDs 0..n-1 in input
// order, matching how Baseline3 indexes a strategy set.
func BulkLoadPoints(pts []geometry.Point3) *Tree {
	entries := make([]Entry, len(pts))
	for i, p := range pts {
		entries[i] = Entry{Point: p, ID: i}
	}
	return BulkLoad(entries)
}
