package batch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Budget returns the current workforce budget W.
func (p *Planner) Budget() float64 { return p.w }

// Result materializes the current plan as a solver Result, bit-identical
// to BatchStrat over the live items and budget: same selection order, same
// float sums, same recommendations. O(n); the equivalence checks compare
// it against a fresh BatchStrat.
func (p *Planner) Result() Result {
	p.repair()
	if p.singleWins() {
		return singleItemResult(p.byIndex[p.end.bi])
	}
	res := Result{Recommendations: map[int][]int{}}
	for _, c := range p.chunks {
		for _, e := range c.e[:c.n] {
			if e.taken {
				addItem(&res, p.byIndex[e.index])
			}
		}
	}
	return res
}

// comparePlannerToFresh asserts full, bit-level equivalence between the
// planner's maintained answer and a fresh BatchStrat run over the same
// items and budget: selection order, float sums, recommendations, and
// per-index membership.
func comparePlannerToFresh(t *testing.T, p *Planner, live map[int]Item, event string) {
	t.Helper()
	idxs := make([]int, 0, len(live))
	for idx := range live {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	items := make([]Item, 0, len(live))
	for _, idx := range idxs {
		items = append(items, live[idx])
	}
	fresh := BatchStrat(items, p.Budget())
	got := p.Result()

	if !slices.Equal(got.Selected, fresh.Selected) {
		t.Fatalf("%s: selected diverged:\n got %v\nwant %v", event, got.Selected, fresh.Selected)
	}
	if got.Objective != fresh.Objective {
		t.Fatalf("%s: objective diverged: got %v, want %v (bit-identity required)", event, got.Objective, fresh.Objective)
	}
	if got.Workforce != fresh.Workforce {
		t.Fatalf("%s: workforce diverged: got %v, want %v (bit-identity required)", event, got.Workforce, fresh.Workforce)
	}
	if p.Objective() != fresh.Objective || p.Workforce() != fresh.Workforce {
		t.Fatalf("%s: aggregate accessors diverged from Result", event)
	}
	if len(got.Recommendations) != len(fresh.Recommendations) {
		t.Fatalf("%s: recommendation count: got %d, want %d", event, len(got.Recommendations), len(fresh.Recommendations))
	}
	for idx, want := range fresh.Recommendations {
		if !slices.Equal(got.Recommendations[idx], want) {
			t.Fatalf("%s: recommendations[%d]: got %v, want %v", event, got.Recommendations[idx], idx, want)
		}
	}
	for _, idx := range idxs {
		if p.IsSelected(idx) != fresh.IsSelected(idx) {
			t.Fatalf("%s: IsSelected(%d): got %v, want %v", event, idx, p.IsSelected(idx), fresh.IsSelected(idx))
		}
	}
}

// plannerEvent is one step of a randomized profile.
type plannerEvent int

const (
	evInsert plannerEvent = iota
	evRemove
	evDrift
	evUpdate
)

// profileStep picks the next event kind for the named churn profile.
func profileStep(profile string, rng *rand.Rand, step, liveCount int) plannerEvent {
	switch profile {
	case "chunk-storm":
		// Grow the pool in bursts, then drain it; the test picks which
		// items the storm revokes.
		if step < chunkStormGrowth {
			return evInsert
		}
		if rng.Float64() < 0.02 {
			return evDrift
		}
		return evRemove
	case "revoke-storm":
		// Build a pool, then drain it with occasional refills and drifts.
		if step < 200 || (liveCount < 20 && rng.Float64() < 0.6) {
			return evInsert
		}
		if rng.Float64() < 0.05 {
			return evDrift
		}
		return evRemove
	case "bursty":
		// Alternating insert and remove bursts of 25.
		if rng.Float64() < 0.04 {
			return evDrift
		}
		if (step/25)%2 == 0 || liveCount == 0 {
			return evInsert
		}
		return evRemove
	default: // steady
		r := rng.Float64()
		switch {
		case liveCount > 0 && r < 0.35:
			return evRemove
		case r < 0.42:
			return evDrift
		case liveCount > 0 && r < 0.50:
			return evUpdate
		default:
			return evInsert
		}
	}
}

// randomItem generates an item with deliberate degeneracies: quantized
// workforces (density ties), zero workforces (infinite density), items
// larger than any budget, and infeasible (+Inf) items.
func randomItem(rng *rand.Rand, idx int, payoff bool) Item {
	wf := float64(rng.Intn(40)) / 100 // quantized: plenty of exact ties
	switch r := rng.Float64(); {
	case r < 0.05:
		wf = 0
	case r < 0.10:
		wf = 1.5 + rng.Float64() // can never fit a [0,1] budget
	case r < 0.13:
		wf = math.Inf(1)
	case r < 0.5:
		wf = rng.Float64() * 0.4 // continuous: no ties
	}
	v := 1.0
	if payoff {
		v = float64(rng.Intn(8)) / 2 // quantized values: density ties, zero values
	}
	return Item{Index: idx, Value: v, Workforce: wf, Strategies: []int{idx % 7, idx % 3}}
}

// chunkStormGrowth is the number of insert bursts (1-32 items each) the
// chunk-storm profile grows its pool with: over 2,600 items, more than 20
// chunks even if every chunk were full.
const chunkStormGrowth = 165

// TestPlannerMatchesBatchStratRandom is the randomized equivalence
// property: across steady / revoke-storm / bursty churn profiles and both
// objective shapes (unit values = throughput, varied values = payoff),
// the incremental planner's answer is bit-identical to a fresh BatchStrat
// run after EVERY event, and the Changed() delta stream reconstructs the
// same selection. The chunk-storm profile grows a pool of over 20 chunks
// under a budget that packs across several of them, then revokes a run
// of the density order from the middle (emptying at least one whole
// chunk there), then its last chunkSize items (the last chunk), then
// everything else in random order. Its events are bursts of 1-32 ops of
// one kind, so a pool that large stays cheap to check after every event.
func TestPlannerMatchesBatchStratRandom(t *testing.T) {
	for _, profile := range []string{"steady", "revoke-storm", "bursty", "chunk-storm"} {
		for _, objective := range []string{"throughput", "payoff"} {
			t.Run(profile+"/"+objective, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(profile)*100 + len(objective))))
				steps, scale := 600, 1.0
				if profile == "chunk-storm" {
					steps, scale = 4*chunkStormGrowth, 100
				}
				p := NewPlanner(0.7 * scale)
				live := map[int]Item{}
				serving := map[int]bool{} // maintained via Changed() deltas
				nextIdx := 0
				var storm []int // chunk-storm: the revokes still to come
				chunksAt := 0   // chunk count when the current storm run began

				syncServing := func() {
					for _, idx := range p.Changed() {
						if _, ok := live[idx]; !ok {
							delete(serving, idx)
							continue
						}
						serving[idx] = p.IsSelected(idx)
					}
				}

				for step := 0; step < steps; step++ {
					ev := profileStep(profile, rng, step, len(live))
					burst := 1
					if profile == "chunk-storm" {
						burst = 1 + rng.Intn(32)
					}
					if profile == "chunk-storm" && step == chunkStormGrowth {
						if len(live) <= 20*chunkSize {
							t.Fatalf("the pool grew to %d items, want over %d", len(live), 20*chunkSize)
						}
						order := densityOrder(live)
						mid := len(order) / 2
						// 2*chunkSize consecutive items hold a whole chunk.
						for _, it := range order[mid : mid+2*chunkSize] {
							storm = append(storm, it.Index)
						}
						for _, it := range order[len(order)-chunkSize:] {
							storm = append(storm, it.Index)
						}
						chunksAt = len(p.chunks)
					}
					var desc string
					switch ev {
					case evInsert:
						for range burst {
							it := randomItem(rng, nextIdx, objective == "payoff")
							nextIdx++
							if err := p.Insert(it); err != nil {
								t.Fatal(err)
							}
							live[it.Index] = it
							desc = fmt.Sprintf("step %d insert %d", step, it.Index)
						}
					case evRemove:
						if len(live) == 0 {
							continue
						}
						for range burst {
							if len(live) == 0 {
								break
							}
							idx := randomLiveIndex(rng, live)
							if len(storm) > 0 {
								idx, storm = storm[0], storm[1:]
							}
							if !p.Remove(idx) {
								t.Fatalf("step %d: Remove(%d) reported missing", step, idx)
							}
							delete(live, idx)
							desc = fmt.Sprintf("step %d remove %d", step, idx)
							if chunksAt > 0 && (len(storm) == chunkSize || len(storm) == 0) {
								// The middle run, then the tail, each
								// emptied at least one whole chunk.
								if len(p.chunks) >= chunksAt {
									t.Fatalf("%s: %d chunks after a storm run, %d before it", desc, len(p.chunks), chunksAt)
								}
								chunksAt = len(p.chunks)
								if len(storm) == 0 {
									chunksAt = 0
								}
								break
							}
						}
					case evUpdate:
						idx := randomLiveIndex(rng, live)
						it := randomItem(rng, idx, objective == "payoff")
						if !p.Remove(idx) {
							t.Fatalf("step %d: Remove(%d) reported missing", step, idx)
						}
						if err := p.Insert(it); err != nil {
							t.Fatal(err)
						}
						live[idx] = it
						desc = fmt.Sprintf("step %d update %d", step, idx)
					case evDrift:
						w := scale * float64(rng.Intn(101)) / 100
						p.SetBudget(w)
						desc = fmt.Sprintf("step %d drift %v", step, w)
					}
					syncServing()
					comparePlannerToFresh(t, p, live, desc)
					for idx := range live {
						if serving[idx] != p.IsSelected(idx) {
							t.Fatalf("%s: Changed() delta stream diverged at %d: have %v, planner %v",
								desc, idx, serving[idx], p.IsSelected(idx))
						}
					}
				}
				if profile == "chunk-storm" && (len(live) != 0 || len(p.chunks) != 0) {
					t.Fatalf("the storm left %d items in %d chunks", len(live), len(p.chunks))
				}
			})
		}
	}
}

// densityOrder returns the live items in the order a fresh BatchStrat
// walks them.
func densityOrder(live map[int]Item) []Item {
	items := make([]Item, 0, len(live))
	for _, it := range live {
		items = append(items, it)
	}
	slices.SortFunc(items, compareItems)
	return items
}

func randomLiveIndex(rng *rand.Rand, live map[int]Item) int {
	n := rng.Intn(len(live))
	for idx := range live {
		if n == 0 {
			return idx
		}
		n--
	}
	panic("unreachable")
}

// TestPlannerDeferredBatchEquivalence pins the deferred-replan contract:
// a burst of mutations with no interleaved reads costs one repair and
// still lands on the fresh answer, with Changed reporting the net delta
// exactly once.
func TestPlannerDeferredBatchEquivalence(t *testing.T) {
	t.Run("mixed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(99))
		p := NewPlanner(0.6)
		live := map[int]Item{}
		for i := 0; i < 300; i++ {
			it := randomItem(rng, i, true)
			if err := p.Insert(it); err != nil {
				t.Fatal(err)
			}
			live[i] = it
		}
		checkDeferredBatch(t, p, live, func() {
			// One "batch": 60 mixed mutations, no reads in between.
			for i := 0; i < 60; i++ {
				switch {
				case i%3 == 0:
					idx := randomLiveIndex(rng, live)
					p.Remove(idx)
					delete(live, idx)
				default:
					it := randomItem(rng, 1000+i, true)
					if err := p.Insert(it); err != nil {
						t.Fatal(err)
					}
					live[it.Index] = it
				}
			}
			p.SetBudget(0.45)
		})
	})
	t.Run("chunks", func(t *testing.T) {
		// Workforces rise with the index, so the density order is index
		// order, and inserting in that order leaves chunks of
		// chunkSize/2: item i sits in chunk i/64. W=60 packs items 0-344.
		p := NewPlanner(60)
		live := map[int]Item{}
		for i := 0; i < 1000; i++ {
			it := Item{Index: i, Value: 1, Workforce: float64(i+1) / 1000, Strategies: []int{i % 5}}
			if err := p.Insert(it); err != nil {
				t.Fatal(err)
			}
			live[i] = it
		}
		chunks := len(p.chunks)
		checkDeferredBatch(t, p, live, func() {
			// 130 items between items 400 and 401 land in one chunk and
			// split it.
			for j := 1; j <= 130; j++ {
				it := Item{Index: 1000 + j, Value: 1, Workforce: 0.401 + float64(j)*1e-6}
				if err := p.Insert(it); err != nil {
					t.Fatal(err)
				}
				live[it.Index] = it
			}
			// Items 600-855 hold chunks 10-12 whole. The 24 items left
			// in chunk 9 and the 40 left in chunk 13 fit in half a
			// chunk, so those two merge.
			for i := 600; i < 856; i++ {
				p.Remove(i)
				delete(live, i)
			}
			// The packing now ends inside the inserted run's chunks.
			p.SetBudget(150)
		})
		if want := chunks - 3 + 2 - 1; len(p.chunks) != want {
			t.Fatalf("%d chunks after the batch, want %d (3 emptied, 2 split off, 1 merged)", len(p.chunks), want)
		}
		checkChunks(t, p)
	})
}

// checkDeferredBatch consumes the planner's pending delta, applies batch
// with no reads in between, and checks that one Changed sweep reports
// exactly the net selection change and lands on the fresh answer.
func checkDeferredBatch(t *testing.T, p *Planner, live map[int]Item, batch func()) {
	t.Helper()
	// Consume the initial delta so the batch below starts clean.
	p.Changed()
	before := map[int]bool{}
	for idx := range live {
		before[idx] = p.IsSelected(idx)
	}

	batch()

	changed := map[int]bool{}
	for _, idx := range p.Changed() {
		if changed[idx] {
			t.Fatalf("Changed() reported %d twice", idx)
		}
		changed[idx] = true
	}
	comparePlannerToFresh(t, p, live, "after deferred batch")
	for idx := range live {
		if (before[idx] != p.IsSelected(idx)) != changed[idx] {
			t.Fatalf("Changed() wrong for %d: before=%v now=%v reported=%v",
				idx, before[idx], p.IsSelected(idx), changed[idx])
		}
	}
}

// TestPlannerBestSingleTransitions forces the greedy/best-single winner to
// flip in both directions and checks the Changed deltas across the branch
// switch — the subtlest path of the incremental bookkeeping.
func TestPlannerBestSingleTransitions(t *testing.T) {
	p := NewPlanner(1.0)
	// Two small dense items (greedy picks both, objective 2) and one huge
	// item that cannot coexist with them.
	small1 := Item{Index: 1, Value: 1, Workforce: 0.3}
	small2 := Item{Index: 2, Value: 1, Workforce: 0.3}
	for _, it := range []Item{small1, small2} {
		if err := p.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	p.Changed()
	if !p.IsSelected(1) || !p.IsSelected(2) {
		t.Fatal("greedy should take both small items")
	}

	// A single item worth more than the whole greedy packing: best-single
	// wins, so 1 and 2 drop out and 3 takes over.
	big := Item{Index: 3, Value: 5, Workforce: 0.9}
	if err := p.Insert(big); err != nil {
		t.Fatal(err)
	}
	changed := append([]int(nil), p.Changed()...)
	sort.Ints(changed)
	if !slices.Equal(changed, []int{1, 2, 3}) {
		t.Fatalf("greedy->single delta = %v, want [1 2 3]", changed)
	}
	if p.IsSelected(1) || p.IsSelected(2) || !p.IsSelected(3) {
		t.Fatal("best single item should be the whole plan")
	}
	comparePlannerToFresh(t, p, map[int]Item{1: small1, 2: small2, 3: big}, "single wins")

	// Removing the big item flips the winner back to the greedy packing.
	p.Remove(3)
	changed = append(changed[:0], p.Changed()...)
	sort.Ints(changed)
	if !slices.Equal(changed, []int{1, 2, 3}) {
		t.Fatalf("single->greedy delta = %v, want [1 2 3]", changed)
	}
	if !p.IsSelected(1) || !p.IsSelected(2) || p.IsSelected(3) {
		t.Fatal("greedy packing should be restored")
	}
	comparePlannerToFresh(t, p, map[int]Item{1: small1, 2: small2}, "greedy restored")
}

// TestPlannerEdgeCases covers the planner API contract around the random
// property: empty pools, duplicate indices, unknown removals.
func TestPlannerEdgeCases(t *testing.T) {
	p := NewPlanner(0.5)
	comparePlannerToFresh(t, p, map[int]Item{}, "empty")
	if p.Len() != 0 || p.Budget() != 0.5 {
		t.Fatalf("empty planner: len %d budget %v", p.Len(), p.Budget())
	}
	if got := p.Changed(); len(got) != 0 {
		t.Fatalf("empty planner changed: %v", got)
	}
	if p.Remove(7) {
		t.Fatal("Remove on empty pool reported success")
	}
	if err := p.Insert(Item{Index: 1, Value: 1, Workforce: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(Item{Index: 1, Value: 2, Workforce: 0.1}); !errors.Is(err, ErrDuplicateIndex) {
		t.Fatalf("duplicate insert error = %v", err)
	}
	if p.Len() != 1 {
		t.Fatalf("failed insert mutated pool: len %d", p.Len())
	}
	// Zero-budget pool: only zero-workforce items can serve.
	p.SetBudget(0)
	if err := p.Insert(Item{Index: 2, Value: 1, Workforce: 0}); err != nil {
		t.Fatal(err)
	}
	p.Changed()
	if p.IsSelected(1) || !p.IsSelected(2) {
		t.Fatal("zero-budget selection wrong")
	}
	comparePlannerToFresh(t, p, map[int]Item{
		1: {Index: 1, Value: 1, Workforce: 0.2},
		2: {Index: 2, Value: 1, Workforce: 0},
	}, "zero budget")

	// A sorted run into one full chunk splits it before, at and after its
	// midpoint, and at both ends. Item i of the full chunk has workforce
	// (i+1)/1024, so W=2 packs items 0-62: the packing ends at the split.
	for _, at := range []int{0, 10, chunkSize/2 - 1, chunkSize / 2, chunkSize/2 + 1, 100, chunkSize} {
		p := NewPlanner(2)
		live := map[int]Item{}
		insert := func(it Item) {
			if err := p.Insert(it); err != nil {
				t.Fatal(err)
			}
			live[it.Index] = it
		}
		for i := 0; i < chunkSize; i++ {
			insert(Item{Index: i, Value: 1, Workforce: float64(i+1) / 1024})
		}
		// The run sorts between items at-1 and at, in ascending order.
		for j := 1; j <= chunkSize/2+10; j++ {
			insert(Item{Index: 1000 + j, Value: 1, Workforce: (float64(at) + float64(j)/128) / 1024})
			comparePlannerToFresh(t, p, live, fmt.Sprintf("run at %d, insert %d", at, j))
			checkChunks(t, p)
		}
		if len(p.chunks) != 3 {
			t.Fatalf("run at %d: %d chunks, want 3 (two splits)", at, len(p.chunks))
		}
	}
}

// TestPlannerChurnBoundsChunks: under steady churn the chunk count
// follows the pool, not its history. A 10k pool takes 300k random
// revoke+insert pairs, with a Changed sweep every 32 as a coalescing
// tenant loop makes one. Every item is worth 1 and needs one of eight
// workforces, so each new item sorts last among its equals: the inserts
// split chunks at eight points, and the random revokes thin out the
// chunks they leave behind. Merging keeps every two adjacent chunks
// above half a chunk, so the pool never spans more than 4n/chunkSize + 1
// chunks; without merges this churn ends at 674.
func TestPlannerChurnBoundsChunks(t *testing.T) {
	const n, pairs = 10000, 300000
	rng := rand.New(rand.NewSource(7))
	item := func(idx int) Item {
		return Item{Index: idx, Value: 1, Workforce: float64(rng.Intn(8)+1) / 100}
	}
	p := NewPlanner(50)
	live := make([]int, 0, n)
	for next := range n {
		if err := p.Insert(item(next)); err != nil {
			t.Fatal(err)
		}
		live = append(live, next)
	}
	bound := 4*n/chunkSize + 1
	for i := range pairs {
		j := rng.Intn(n)
		if !p.Remove(live[j]) {
			t.Fatalf("pair %d: Remove(%d) reported missing", i, live[j])
		}
		live[j] = n + i
		if err := p.Insert(item(live[j])); err != nil {
			t.Fatal(err)
		}
		if i%32 == 31 {
			p.Changed()
		}
		if len(p.chunks) > bound {
			t.Fatalf("pair %d: %d chunks for %d items, bound %d", i, len(p.chunks), n, bound)
		}
	}
	checkChunks(t, p)
}

// checkChunks asserts the planner's chunk invariants: no chunk is empty
// or over chunkSize, no two adjacent chunks fit in half a chunk, the
// entries run in strict compareItems order across chunk boundaries, and
// they are exactly the live items.
func checkChunks(t *testing.T, p *Planner) {
	t.Helper()
	n := 0
	var prev *entry
	for ci, c := range p.chunks {
		if c.n < 1 || c.n > chunkSize {
			t.Fatalf("chunk %d holds %d entries", ci, c.n)
		}
		if ci > 0 && p.chunks[ci-1].n+c.n <= chunkSize/2 {
			t.Fatalf("chunks %d and %d hold %d and %d entries: they fit in half a chunk", ci-1, ci, p.chunks[ci-1].n, c.n)
		}
		for q := range c.e[:c.n] {
			e := &c.e[q]
			if it, ok := p.byIndex[e.index]; !ok || it.Value != e.value || it.Workforce != e.workforce {
				t.Fatalf("chunk %d entry %d (%+v) is not the live item %+v", ci, q, *e, it)
			}
			if prev != nil && compareItems(prev.item(), e.item()) >= 0 {
				t.Fatalf("chunk %d entry %d (%+v) does not sort after %+v", ci, q, *e, *prev)
			}
			prev = e
			n++
		}
	}
	if n != len(p.byIndex) {
		t.Fatalf("chunks hold %d entries, %d items live", n, len(p.byIndex))
	}
}

// FuzzPlanner decodes the input into planner events and checks the
// planner against a fresh BatchStrat after every one: Result() must be
// bit-identical, the chunks must keep their invariants, and the Changed()
// stream must rebuild the selection. The first byte picks the objective
// shape and seeds the item generator; then each event is three bytes,
// op, a and b:
//
//	op%4 == 0: insert a run of a+1 random items (up to 256), so a short
//	           input spans several chunks;
//	op%4 == 1: remove b+1 consecutive items of the density order,
//	           starting a/256 of the way in, which can empty whole chunks;
//	op%4 == 2: update the item a/256 of the way in with a random item;
//	op%4 == 3: set the budget to (256a+b)/1024.
func FuzzPlanner(f *testing.F) {
	f.Add([]byte{1, 0, 199, 0, 3, 0, 40, 0, 255, 0, 1, 100, 150, 1, 250, 255, 3, 20, 0, 1, 0, 255, 1, 0, 255})
	f.Add([]byte{2, 0, 255, 0, 0, 255, 0, 1, 128, 127, 2, 30, 0, 3, 1, 0, 1, 0, 200, 3, 0, 0})
	f.Add([]byte{3, 0, 2, 0, 1, 0, 2, 3, 0, 128, 1, 0, 255, 0, 130, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		payoff := data[0]&1 == 1
		rng := rand.New(rand.NewSource(int64(data[0])))
		data = data[1:]
		p := NewPlanner(1)
		live := map[int]Item{}
		serving := map[int]bool{}
		next := 0
		for ev := 0; ev < 16 && len(data) >= 3; ev++ {
			op, a, b := data[0]%4, int(data[1]), int(data[2])
			data = data[3:]
			desc := fmt.Sprintf("event %d (op %d, %d, %d)", ev, op, a, b)
			switch op {
			case 0:
				for range a + 1 {
					it := randomItem(rng, next, payoff)
					next++
					if err := p.Insert(it); err != nil {
						t.Fatal(err)
					}
					live[it.Index] = it
				}
			case 1, 2:
				if len(live) == 0 {
					continue
				}
				order := densityOrder(live)
				start := a * len(order) / 256
				if op == 2 {
					it := randomItem(rng, order[start].Index, payoff)
					if !p.Remove(it.Index) {
						t.Fatalf("%s: Remove(%d) reported missing", desc, it.Index)
					}
					if err := p.Insert(it); err != nil {
						t.Fatal(err)
					}
					live[it.Index] = it
					break
				}
				for _, it := range order[start:min(start+b+1, len(order))] {
					if !p.Remove(it.Index) {
						t.Fatalf("%s: Remove(%d) reported missing", desc, it.Index)
					}
					delete(live, it.Index)
				}
			case 3:
				p.SetBudget(float64(a*256+b) / 1024)
			}
			for _, idx := range p.Changed() {
				if _, ok := live[idx]; !ok {
					delete(serving, idx)
					continue
				}
				serving[idx] = p.IsSelected(idx)
			}
			comparePlannerToFresh(t, p, live, desc)
			checkChunks(t, p)
			for idx := range live {
				if serving[idx] != p.IsSelected(idx) {
					t.Fatalf("%s: Changed() delta stream diverged at %d: have %v, planner %v",
						desc, idx, serving[idx], p.IsSelected(idx))
				}
			}
		}
	})
}
