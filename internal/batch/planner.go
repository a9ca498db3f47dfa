package batch

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Planner maintains BatchStrat's answer incrementally over a mutating item
// pool: the fully dynamic setting the paper's conclusion poses as an open
// problem, made tractable by the greedy structure of Algorithm 1. Instead
// of re-filtering, re-sorting and re-packing the whole pool on every
// submit/revoke/drift event — O(n log n) per event — the planner keeps the
// items in density order (the strict total order of compareItems, keyed by
// (density, workforce, index)) and repairs the greedy prefix-with-skips
// packing and the best-single answer from the first affected chunk only.
//
// The ordered pool is a list of chunks of at most chunkSize consecutive
// items. Each chunk stores the greedy state just before its first item:
// the objective and workforce packed so far and the best single feasible
// item so far. An edit binary-searches the chunks by their last item,
// then the items inside one chunk, and moves at most one chunk's items; a
// full chunk splits in half, an emptied chunk is dropped, and a shrunk
// chunk merges into a neighbour when the two fit in half a chunk.
//
// The contract is exact equivalence: after any sequence of
// Insert/Remove/SetBudget events, the plan is bit-identical — selection
// order, objective and workforce sums included — to a fresh BatchStrat
// call over the same items and budget. That holds because the
// repair resumes from the stored state of the first stale chunk, so every
// float is produced by the same additions in the same order a fresh run
// would perform.
//
// Item indices must be unique across the live pool (they are the planner's
// identity key); Insert rejects duplicates with ErrDuplicateIndex.
// Repair work is deferred: mutations cost a one-chunk edit, and the greedy
// walk from the first stale chunk runs at most once per batch of
// mutations, when Changed, IsSelected or one of the aggregate accessors
// is next called. A Planner is not safe for concurrent use.
type Planner struct {
	w float64

	// chunks is the live pool in compareItems order. No chunk is empty,
	// so there are never more chunks than items. byIndex maps the
	// identity key to the stored item, strategies included, which the
	// chunks leave out so they hold no pointers.
	chunks  []*chunk
	byIndex map[int]Item

	// Current answer (valid when dirty < 0): the greedy selection as a
	// membership set, and end, the greedy state after the last chunk —
	// the greedy totals and the best-single candidate.
	greedySel map[int]bool
	end       greedyState

	// dirty is the first chunk whose greedy decisions may be stale (-1
	// when clean); it may equal len(chunks) when the last chunk emptied,
	// and then end holds the state to resume from. flipped toggles per
	// greedy-membership change since the last Changed call;
	// lastSingleWins/lastSingleIdx freeze the winning branch as of that
	// call, so Changed can report the exact final-selection delta even
	// across greedy/best-single flips.
	dirty          int
	flipped        map[int]bool
	lastSingleWins bool
	lastSingleIdx  int

	changed []int // reusable Changed() result buffer
}

// chunkSize caps the items in one chunk: an edit moves at most this many
// entries.
const chunkSize = 128

// chunk is a run of consecutive items in the density order, with the
// greedy state just before its first item.
type chunk struct {
	before greedyState
	n      int
	e      [chunkSize]entry
}

// entry is one live item as the greedy walk reads it, plus its decision.
type entry struct {
	index            int
	value, workforce float64
	taken            bool
}

// item returns the fields compareItems reads, as an Item.
func (e *entry) item() Item { return Item{Index: e.index, Value: e.value, Workforce: e.workforce} }

// greedyState is the greedy walk's state between two positions: cv/cw are
// the objective and workforce packed so far, bv/bi the best single
// feasible item so far (strict-max, earliest wins; bi -1 when none).
type greedyState struct {
	cv, cw, bv float64
	bi         int
}

// ErrDuplicateIndex rejects inserting an item whose index is already live
// in the pool.
var ErrDuplicateIndex = errors.New("batch: duplicate item index")

// NewPlanner builds an empty planner with the given workforce budget W.
func NewPlanner(w float64) *Planner {
	return &Planner{
		w:             w,
		byIndex:       map[int]Item{},
		greedySel:     map[int]bool{},
		end:           greedyState{bi: -1},
		dirty:         -1,
		flipped:       map[int]bool{},
		lastSingleIdx: -1,
	}
}

// Len returns the number of live items.
func (p *Planner) Len() int { return len(p.byIndex) }

// markDirty records that greedy decisions from chunk ci on may be stale.
func (p *Planner) markDirty(ci int) {
	if p.dirty < 0 || ci < p.dirty {
		p.dirty = ci
	}
}

// find returns the chunk that holds, or would hold, it — the first chunk
// whose last item does not sort before it, else the last chunk — and the
// lower bound of it inside that chunk. There must be at least one chunk.
//
//lint:allocfree
func (p *Planner) find(it Item) (ci, pos int) {
	ci = sort.Search(len(p.chunks)-1, func(i int) bool {
		c := p.chunks[i]
		return compareItems(it, c.e[c.n-1].item()) <= 0
	})
	c := p.chunks[ci]
	pos = sort.Search(c.n, func(i int) bool { return compareItems(it, c.e[i].item()) <= 0 })
	return ci, pos
}

// Insert adds an item to the pool. The repair is deferred; the cost paid
// here is the one-chunk edit alone.
func (p *Planner) Insert(it Item) error {
	if _, dup := p.byIndex[it.Index]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateIndex, it.Index)
	}
	p.byIndex[it.Index] = it
	if len(p.chunks) == 0 {
		p.chunks = append(p.chunks, &chunk{before: greedyState{bi: -1}})
	}
	ci, pos := p.find(it)
	p.markDirty(ci)
	c := p.chunks[ci]
	if c.n == chunkSize {
		// Split in half. The new chunk's state is stale, but it lies
		// after ci, which is dirty already.
		next := &chunk{n: chunkSize / 2}
		copy(next.e[:], c.e[chunkSize/2:])
		c.n = chunkSize / 2
		p.chunks = slices.Insert(p.chunks, ci+1, next)
		if pos > c.n {
			c, pos = next, pos-c.n
		}
	}
	copy(c.e[pos+1:c.n+1], c.e[pos:c.n])
	c.e[pos] = entry{index: it.Index, value: it.Value, workforce: it.Workforce}
	c.n++
	return nil
}

// Remove deletes the item with the given index from the pool, reporting
// whether it was present.
//
//lint:allocfree
func (p *Planner) Remove(index int) bool {
	it, ok := p.byIndex[index]
	if !ok {
		return false
	}
	delete(p.byIndex, index)
	// The strict total order over unique indices makes the lower bound
	// land on the stored item.
	ci, pos := p.find(it)
	c := p.chunks[ci]
	if pos >= c.n || c.e[pos].index != index {
		panic(fmt.Sprintf("batch: planner order lost item %d", index)) //lint:allow allocbound -- only a planner bug reaches this panic
	}
	if c.e[pos].taken {
		// The item leaves the greedy selection by leaving the pool; the
		// toggle keeps Changed's before/after reconstruction exact.
		p.toggle(index)
		delete(p.greedySel, index)
	}
	copy(c.e[pos:c.n], c.e[pos+1:c.n])
	c.n--
	p.markDirty(ci)
	switch {
	case c.n == 0:
		// The state before an empty chunk is the state before its
		// successor, or the final state when it was the last chunk.
		if ci+1 < len(p.chunks) {
			p.chunks[ci+1].before = c.before
		} else {
			p.end = c.before
		}
		p.chunks = slices.Delete(p.chunks, ci, ci+1)
	case ci > 0 && p.chunks[ci-1].n+c.n <= chunkSize/2:
		p.merge(ci - 1)
	case ci+1 < len(p.chunks) && c.n+p.chunks[ci+1].n <= chunkSize/2:
		p.merge(ci)
	}
	return true
}

// merge appends chunk ci+1's entries to chunk ci and drops ci+1. The
// merged chunk keeps ci's before state and is repaired from its first
// entry. Remove merges a shrunk chunk into a neighbour whenever the two
// fit in half a chunk, so no two adjacent chunks ever do, and a pool of
// n items spans at most 4n/chunkSize + 1 chunks however it churns.
//
//lint:allocfree
func (p *Planner) merge(ci int) {
	c, next := p.chunks[ci], p.chunks[ci+1]
	copy(c.e[c.n:], next.e[:next.n])
	c.n += next.n
	p.markDirty(ci)
	p.chunks = slices.Delete(p.chunks, ci+1, ci+2)
}

// SetBudget moves the workforce budget W. Feasibility and every greedy
// decision may change, so the whole pool is marked for repair (still
// without re-sorting: the density order is independent of W).
func (p *Planner) SetBudget(w float64) {
	if w == p.w {
		return
	}
	p.w = w
	if len(p.chunks) > 0 {
		p.markDirty(0)
	}
}

//lint:allocfree
func (p *Planner) toggle(index int) {
	if p.flipped[index] {
		delete(p.flipped, index)
	} else {
		p.flipped[index] = true
	}
}

// repair re-walks the greedy packing and best-single scan from the first
// stale chunk, resuming from that chunk's stored state — the incremental
// core. Chunks before dirty keep decisions and states bit-identical to a
// fresh run by induction; from dirty on, every decision and every later
// chunk's state is recomputed exactly as a fresh run would.
//
//lint:allocfree
func (p *Planner) repair() {
	if p.dirty < 0 {
		return
	}
	s := p.end
	if p.dirty < len(p.chunks) {
		s = p.chunks[p.dirty].before
	}
	for _, c := range p.chunks[p.dirty:] {
		c.before = s
		for q := range c.e[:c.n] {
			e := &c.e[q]
			// Same arithmetic as greedyPack: skip when the item no longer
			// fits. An item with Workforce > W (or +Inf) can never fit, so
			// the single comparison is also the feasibility filter.
			take := !(s.cw+e.workforce > p.w)
			if take {
				s.cv += e.value
				s.cw += e.workforce
			}
			if take != e.taken {
				e.taken = take
				if take {
					p.greedySel[e.index] = true
				} else {
					delete(p.greedySel, e.index)
				}
				p.toggle(e.index)
			}
			// Best single feasible item, strict-max so the earliest
			// (densest) of tied values wins — exactly BatchStrat's scan.
			if e.workforce <= p.w && !math.IsInf(e.workforce, 1) && e.value > s.bv {
				s.bv, s.bi = e.value, e.index
			}
		}
	}
	p.end = s
	p.dirty = -1
}

// singleWins mirrors BatchStrat's final comparison: the best single item
// beats the greedy packing only strictly.
func (p *Planner) singleWins() bool { return p.end.bv > p.end.cv }

// IsSelected reports whether the item with the given index is in the
// current plan (the same answer Result().IsSelected would give).
func (p *Planner) IsSelected(index int) bool {
	p.repair()
	if p.singleWins() {
		return index == p.end.bi
	}
	return p.greedySel[index]
}

// Changed repairs the plan and returns the indices whose final selection
// status changed since the previous Changed call (including items that
// left the pool while selected). The returned slice is reused by the next
// call. A deferred-replan caller applies a batch of Insert/Remove/
// SetBudget events and then syncs its own serving state from one Changed
// sweep.
func (p *Planner) Changed() []int {
	p.repair()
	p.changed = p.changed[:0]
	preWins, preIdx := p.lastSingleWins, p.lastSingleIdx
	postWins, postIdx := p.singleWins(), p.end.bi
	if !preWins && !postWins {
		// Both plans are the greedy packing: the delta is exactly the
		// toggled memberships.
		for idx := range p.flipped {
			p.changed = append(p.changed, idx)
		}
	} else {
		// A best-single plan is involved on at least one side. Final
		// membership before/after:
		//   before(idx) = preWins  ? idx == preIdx  : greedyBefore(idx)
		//   after(idx)  = postWins ? idx == postIdx : greedySel(idx)
		// where greedyBefore(idx) = greedySel(idx) XOR flipped(idx).
		// Every index whose status can differ is in greedySel, flipped,
		// or one of the two single candidates.
		appendIfChanged := func(idx int) {
			before := p.greedySel[idx] != p.flipped[idx]
			if preWins {
				before = idx == preIdx
			}
			after := p.greedySel[idx]
			if postWins {
				after = idx == postIdx
			}
			if before != after {
				p.changed = append(p.changed, idx)
			}
		}
		seen := func(idx int) bool {
			for _, c := range p.changed {
				if c == idx {
					return true
				}
			}
			return false
		}
		for idx := range p.greedySel {
			appendIfChanged(idx)
		}
		for idx := range p.flipped {
			if !p.greedySel[idx] && !seen(idx) {
				appendIfChanged(idx)
			}
		}
		for _, idx := range []int{preIdx, postIdx} {
			if idx >= 0 && !p.greedySel[idx] && !p.flipped[idx] && !seen(idx) {
				appendIfChanged(idx)
			}
		}
	}
	clear(p.flipped)
	p.lastSingleWins, p.lastSingleIdx = postWins, postIdx
	return p.changed
}

// Objective returns the current plan's objective value F.
func (p *Planner) Objective() float64 {
	p.repair()
	if p.singleWins() {
		return p.end.bv
	}
	return p.end.cv
}

// Workforce returns the current plan's total workforce consumption.
func (p *Planner) Workforce() float64 {
	p.repair()
	if p.singleWins() {
		return p.byIndex[p.end.bi].Workforce
	}
	return p.end.cw
}
