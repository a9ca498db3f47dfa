package stream

import (
	"cmp"
	"hash/maphash"
	"math/bits"
	"slices"

	"stratrec/internal/strategy"
	"stratrec/internal/workforce"
)

// The open pool is a persistent hash array mapped trie (HAMT; Bagwell,
// "Ideal Hash Trees", 2001) keyed by request ID. Each level consumes
// levelBits bits of the ID's 64-bit hash and stores only its occupied
// slots, in bit order, behind a 32-bit occupancy bitmap; IDs whose whole
// hashes collide share a bucket node below the last level.
//
// Writes path-copy: a write replaces the nodes on the path from the
// root to the changed leaf and shares every other node. Every node
// records the manager generation that allocated it. Publish advances
// the generation, so a node a View can reach is never written again,
// while a node allocated since the last Publish is still private to
// the manager and is edited in place. Between two publishes each node is
// therefore copied at most once, however many of its leaves change, and
// publishing itself copies nothing.

const (
	levelBits = 5
	levelMask = 1<<levelBits - 1
	// hashBits is the key hash width: a node at this shift is a bucket of
	// full-hash collisions, searched linearly.
	hashBits = 64
)

// hashSeed keys the ID hash. It is drawn per process, so clients cannot
// pick IDs that collide into one long bucket.
var hashSeed = maphash.MakeSeed()

func hashID(id string) uint64 { return maphash.String(hashSeed, id) }

// admission is an open request's admission record: the request, its
// submission sequence number and its workforce requirement, computed
// once when the request is admitted and never written afterwards. The
// manager's trie and every View published since share one record.
type admission struct {
	id      string
	request strategy.Request
	// seq is the submission sequence number the requirement was computed
	// under (the ModelProvider's reqIdx): unique over the manager's
	// lifetime, never reused after a revocation, and preserved across
	// crash recovery, so per-request model rows never alias.
	seq uint64
	req workforce.Requirement
	// ord is the admission ordinal: snapshots and checkpoints list
	// requests in this order.
	ord uint64
	// hash is hashID(id), kept so a slot split never rehashes.
	hash uint64
}

// leaf is one open request in the trie: its admission record and
// whether the committed plan serves it.
type leaf struct {
	rec     *admission
	serving bool
}

// state is the leaf as a RequestState. Strategies is the admission
// record's slice, shared rather than copied.
func (l leaf) state() RequestState {
	r := l.rec
	return RequestState{
		ID:         r.id,
		Request:    r.request,
		Seq:        r.seq,
		Serving:    l.serving,
		Feasible:   r.req.Feasible(),
		Workforce:  r.req.Workforce,
		Strategies: r.req.Strategies,
	}
}

// slot is one occupied position of a node: a sub-trie when sub is
// non-nil, a leaf otherwise.
type slot struct {
	sub *node
	leaf
}

type node struct {
	gen    uint64
	bitmap uint32
	slots  []slot
}

// index locates hash h at the level starting at shift: the bitmap bit
// and the slot position it maps to.
func (n *node) index(h uint64, shift uint) (uint32, int) {
	bit := uint32(1) << (h >> shift & levelMask)
	return bit, bits.OnesCount32(n.bitmap & (bit - 1))
}

// owned returns n when generation gen allocated it and a copy stamped
// with gen otherwise, with room for extra more slots.
func (n *node) owned(gen uint64, extra int) *node {
	if n.gen == gen {
		return n
	}
	c := &node{gen: gen, bitmap: n.bitmap, slots: make([]slot, len(n.slots), len(n.slots)+extra)}
	copy(c.slots, n.slots)
	return c
}

// get finds the leaf stored under id, whose hash is h.
func (n *node) get(h uint64, id string) (leaf, bool) {
	for shift := uint(0); shift < hashBits; shift += levelBits {
		bit, i := n.index(h, shift)
		if n.bitmap&bit == 0 {
			return leaf{}, false
		}
		s := n.slots[i]
		if s.sub == nil {
			if s.rec.id != id {
				return leaf{}, false
			}
			return s.leaf, true
		}
		n = s.sub
	}
	for _, s := range n.slots {
		if s.rec.id == id {
			return s.leaf, true
		}
	}
	return leaf{}, false
}

// put stores l under its ID for generation gen, replacing any leaf with
// that ID, and returns the new node with the replaced leaf (ok false
// when the ID was absent).
func (n *node) put(gen uint64, shift uint, l leaf) (*node, leaf, bool) {
	if shift >= hashBits {
		for i, s := range n.slots {
			if s.rec.id == l.rec.id {
				c := n.owned(gen, 0)
				c.slots[i].leaf = l
				return c, s.leaf, true
			}
		}
		c := n.owned(gen, 1)
		c.slots = append(c.slots, slot{leaf: l})
		return c, leaf{}, false
	}
	bit, i := n.index(l.rec.hash, shift)
	if n.bitmap&bit == 0 {
		c := n.owned(gen, 1)
		c.slots = slices.Insert(c.slots, i, slot{leaf: l})
		c.bitmap |= bit
		return c, leaf{}, false
	}
	s := n.slots[i]
	var old leaf
	var ok bool
	switch {
	case s.sub != nil:
		s.sub, old, ok = s.sub.put(gen, shift+levelBits, l)
	case s.rec.id == l.rec.id:
		old, ok = s.leaf, true
		s.leaf = l
	default:
		// Two IDs share this slot: both move one level down.
		sub := &node{gen: gen, slots: make([]slot, 0, 2)}
		sub, _, _ = sub.put(gen, shift+levelBits, s.leaf)
		s.sub, _, _ = sub.put(gen, shift+levelBits, l)
		s.leaf = leaf{}
	}
	c := n.owned(gen, 0)
	c.slots[i] = s
	return c, old, ok
}

// remove deletes the leaf stored under id (hash h) for generation gen
// and returns the new node with the removed leaf (ok false when the ID
// was absent, n then unchanged).
func (n *node) remove(gen uint64, shift uint, h uint64, id string) (*node, leaf, bool) {
	if shift >= hashBits {
		for i, s := range n.slots {
			if s.rec.id == id {
				c := n.owned(gen, 0)
				c.slots = slices.Delete(c.slots, i, i+1)
				return c, s.leaf, true
			}
		}
		return n, leaf{}, false
	}
	bit, i := n.index(h, shift)
	if n.bitmap&bit == 0 {
		return n, leaf{}, false
	}
	s := n.slots[i]
	if s.sub == nil {
		if s.rec.id != id {
			return n, leaf{}, false
		}
		c := n.owned(gen, 0)
		c.slots = slices.Delete(c.slots, i, i+1)
		c.bitmap &^= bit
		return c, s.leaf, true
	}
	sub, old, ok := s.sub.remove(gen, shift+levelBits, h, id)
	if !ok {
		return n, leaf{}, false
	}
	c := n.owned(gen, 0)
	if len(sub.slots) == 1 && sub.slots[0].sub == nil {
		// A sub-trie down to one leaf folds back into this slot, so the
		// trie stays as shallow as its keys require.
		c.slots[i] = sub.slots[0]
	} else {
		c.slots[i].sub = sub
	}
	return c, old, true
}

// admitted returns the open leaves under n in admission order; open is
// their count.
func (n *node) admitted(open int) []leaf {
	ls := n.appendLeaves(make([]leaf, 0, open))
	slices.SortFunc(ls, func(a, b leaf) int { return cmp.Compare(a.rec.ord, b.rec.ord) })
	return ls
}

func (n *node) appendLeaves(dst []leaf) []leaf {
	for _, s := range n.slots {
		if s.sub != nil {
			dst = s.sub.appendLeaves(dst)
		} else {
			dst = append(dst, s.leaf)
		}
	}
	return dst
}
