package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"stratrec/internal/batch"
	"stratrec/internal/strategy"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// viewHarness drives a manager through submits, revokes, drifts,
// Begin/Commit batches and simulated restarts. It keeps the admission
// order the manager must reproduce, checks every published View against
// a Snapshot built field by field from the manager's own accessors, and
// remembers each earlier View with a deep copy of the Snapshot it built
// when published, so later writes that leak into old views show.
type viewHarness struct {
	t        testing.TB
	set      strategy.Set
	models   workforce.PerStrategyModels
	obj      batch.Objective
	m        *Manager
	order    []string // open IDs in admission order
	reqs     map[string]strategy.Request
	next     int
	batching bool
	views    []*View
	wants    []*Snapshot
}

func newViewHarness(t testing.TB, obj batch.Objective, seed int64) *viewHarness {
	rng := rand.New(rand.NewSource(seed))
	gen := synth.DefaultConfig(synth.Uniform)
	set := gen.Strategies(rng, 8)
	h := &viewHarness{t: t, set: set, models: gen.Models(rng, set), obj: obj, reqs: map[string]strategy.Request{}}
	h.m = h.fresh(0.5)
	return h
}

func (h *viewHarness) fresh(w float64) *Manager {
	m, err := NewManager(h.set, h.models, workforce.MaxCase, h.obj, w)
	if err != nil {
		h.t.Fatal(err)
	}
	return m
}

// step applies one operation decoded from (op, arg).
func (h *viewHarness) step(op, arg byte) {
	t := h.t
	switch op % 8 {
	case 0, 1: // submit a fresh request
		id := fmt.Sprintf("r%d", h.next)
		h.next++
		d := strategy.Request{ID: id, K: 1 + int(arg)%3, Params: strategy.Params{
			Quality: 0.3 + 0.6*float64(arg)/255, Cost: 0.2 + 0.8*float64(arg%17)/16, Latency: 0.9,
		}}
		if _, err := h.m.Submit(d); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
		h.order = append(h.order, id)
		h.reqs[id] = d
	case 2, 3: // revoke an open request
		if len(h.order) == 0 {
			return
		}
		i := int(arg) % len(h.order)
		id := h.order[i]
		if err := h.m.Revoke(id); err != nil {
			t.Fatalf("revoke %s: %v", id, err)
		}
		h.order = slices.Delete(h.order, i, i+1)
		delete(h.reqs, id)
	case 4: // availability drift
		if err := h.m.SetAvailability(float64(arg) / 255); err != nil {
			t.Fatal(err)
		}
	case 5: // open or close a deferred-replan batch
		if h.batching {
			h.m.Commit()
		} else {
			h.m.Begin()
		}
		h.batching = !h.batching
	case 6: // rejected mutations leave the manager unchanged
		epoch := h.m.Epoch()
		if len(h.order) > 0 {
			id := h.order[int(arg)%len(h.order)]
			if _, err := h.m.Submit(h.reqs[id]); !errors.Is(err, ErrDuplicateID) {
				t.Fatalf("duplicate submit of %s: %v", id, err)
			}
		}
		if err := h.m.Revoke("absent"); !errors.Is(err, ErrUnknownID) {
			t.Fatalf("revoke of an absent ID: %v", err)
		}
		if h.m.Epoch() != epoch {
			t.Fatalf("rejected mutations moved the epoch %d -> %d", epoch, h.m.Epoch())
		}
	case 7:
		if arg%4 == 0 {
			h.restart()
		} else {
			h.publish()
		}
	}
}

// commit closes an open batch so the plan is repaired.
func (h *viewHarness) commit() {
	if h.batching {
		h.m.Commit()
		h.batching = false
	}
}

// publish commits, publishes, and checks the view against the reference.
func (h *viewHarness) publish() *View {
	h.commit()
	v := h.m.Publish()
	want := h.reference()
	if err := sameSnapshot(v.Snapshot(), want); err != nil {
		h.t.Fatalf("epoch %d: view snapshot diverged from the manager: %v", v.Epoch, err)
	}
	if v.Open != len(want.Requests) || v.Serving != len(want.Plan.Serving) {
		h.t.Fatalf("view counts open=%d serving=%d, want %d, %d", v.Open, v.Serving, len(want.Requests), len(want.Plan.Serving))
	}
	for _, rs := range want.Requests {
		if got, ok := v.Request(rs.ID); !ok || !reflect.DeepEqual(got, rs) {
			h.t.Fatalf("View.Request(%s) = %+v, %v; want %+v", rs.ID, got, ok, rs)
		}
	}
	if _, ok := v.Request("absent"); ok {
		h.t.Fatal("View.Request found an absent ID")
	}
	h.views = append(h.views, v)
	h.wants = append(h.wants, want)
	return v
}

// restart simulates crash recovery: a fresh manager re-admits the open
// pool in admission order under the original sequence numbers, then
// restores the counters. It must publish exactly the state it replaced.
func (h *viewHarness) restart() {
	before := h.publish()
	m := h.fresh(h.m.Availability())
	for rs := range h.m.Requests() {
		if _, err := m.Resubmit(rs.Request, rs.Seq); err != nil {
			h.t.Fatalf("resubmit %s: %v", rs.ID, err)
		}
	}
	m.RestoreCounters(h.m.Epoch(), h.m.SubmissionCounter())
	h.m = m
	after := h.publish()
	if err := sameSnapshot(after.Snapshot(), before.Snapshot()); err != nil {
		h.t.Fatalf("restart changed the published state: %v", err)
	}
}

// reference builds the Snapshot the manager must publish, field by field
// from its accessors in the harness's admission order, with the plan's
// totals from a fresh BatchStrat run over the open pool. Everything is
// copied, so it is immune to writes into the manager's memory.
func (h *viewHarness) reference() *Snapshot {
	t := h.t
	s := &Snapshot{Epoch: h.m.Epoch(), Availability: h.m.Availability()}
	var items []batch.Item
	for _, id := range h.order {
		served, open := h.m.Served(id)
		if !open {
			t.Fatalf("%s missing from the manager", id)
		}
		seq, _ := h.m.SubmissionSeq(id)
		req, _ := h.m.Requirement(id)
		rs := RequestState{ID: id, Request: h.reqs[id], Seq: seq, Serving: served,
			Feasible: req.Feasible(), Workforce: req.Workforce, Strategies: slices.Clone(req.Strategies)}
		s.Requests = append(s.Requests, rs)
		if served {
			s.Plan.Serving = append(s.Plan.Serving, id)
		} else {
			s.Plan.Displaced = append(s.Plan.Displaced, id)
		}
		if rs.Feasible {
			items = append(items, batch.Item{Index: int(seq), Value: itemValue(h.obj, rs.Request),
				Workforce: rs.Workforce, Strategies: rs.Strategies})
		}
	}
	res := batch.BatchStrat(items, s.Availability)
	s.Plan.Objective, s.Plan.Workforce = res.Objective, res.Workforce
	for _, rs := range s.Requests {
		if sel := rs.Feasible && res.IsSelected(int(rs.Seq)); rs.Serving != sel {
			t.Fatalf("%s: manager serving=%v, BatchStrat selects %v", rs.ID, rs.Serving, sel)
		}
	}
	return s
}

// recheck demands that every earlier view still builds the Snapshot it
// built when it was published.
func (h *viewHarness) recheck() {
	for i, v := range h.views {
		if err := sameSnapshot(v.Snapshot(), h.wants[i]); err != nil {
			h.t.Fatalf("view %d (epoch %d) changed after later mutations: %v", i, v.Epoch, err)
		}
	}
}

func itemValue(obj batch.Objective, d strategy.Request) float64 {
	if obj == batch.Payoff {
		return d.Cost
	}
	return 1
}

// sameSnapshot compares two snapshots field by field, plan totals bit
// for bit.
func sameSnapshot(got, want *Snapshot) error {
	switch {
	case got.Epoch != want.Epoch:
		return fmt.Errorf("epoch %d, want %d", got.Epoch, want.Epoch)
	case got.Availability != want.Availability:
		return fmt.Errorf("availability %v, want %v", got.Availability, want.Availability)
	case math.Float64bits(got.Plan.Objective) != math.Float64bits(want.Plan.Objective):
		return fmt.Errorf("objective %v, want %v", got.Plan.Objective, want.Plan.Objective)
	case math.Float64bits(got.Plan.Workforce) != math.Float64bits(want.Plan.Workforce):
		return fmt.Errorf("workforce %v, want %v", got.Plan.Workforce, want.Plan.Workforce)
	case !slices.Equal(got.Plan.Serving, want.Plan.Serving):
		return fmt.Errorf("serving %v, want %v", got.Plan.Serving, want.Plan.Serving)
	case !slices.Equal(got.Plan.Displaced, want.Plan.Displaced):
		return fmt.Errorf("displaced %v, want %v", got.Plan.Displaced, want.Plan.Displaced)
	case len(got.Requests) != len(want.Requests):
		return fmt.Errorf("%d requests, want %d", len(got.Requests), len(want.Requests))
	}
	for i := range want.Requests {
		if !reflect.DeepEqual(got.Requests[i], want.Requests[i]) {
			return fmt.Errorf("request %d: %+v, want %+v", i, got.Requests[i], want.Requests[i])
		}
	}
	return nil
}

// TestViewDifferential runs seeded random operation sequences under
// both objectives and checks every publish against the reference, then
// checks that no earlier view moved.
func TestViewDifferential(t *testing.T) {
	for _, obj := range []batch.Objective{batch.Throughput, batch.Payoff} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", obj, seed), func(t *testing.T) {
				h := newViewHarness(t, obj, seed)
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 1500; i++ {
					// Bias toward submits early so the pool grows deep
					// enough for multi-level tries and slot splits.
					op := byte(rng.Intn(8))
					if i < 300 && op >= 2 && op <= 3 {
						op = 0
					}
					h.step(op, byte(rng.Intn(256)))
				}
				h.publish()
				h.recheck()
			})
		}
	}
}

// FuzzView drives the harness with arbitrary operation sequences: two
// bytes per operation, the first choosing submit, revoke, drift,
// Begin/Commit, a rejected mutation, a publish or a restart, the second
// its argument.
func FuzzView(f *testing.F) {
	f.Add(byte(0), []byte{0, 10, 0, 200, 0, 90, 7, 1, 2, 0, 7, 1})
	f.Add(byte(1), []byte{0, 1, 0, 2, 5, 0, 0, 3, 2, 1, 4, 30, 5, 0, 7, 0, 7, 1})
	f.Add(byte(0), []byte{0, 255, 0, 128, 0, 64, 4, 0, 7, 2, 4, 255, 7, 4, 6, 1, 7, 1})
	f.Fuzz(func(t *testing.T, obj byte, ops []byte) {
		if len(ops) > 800 {
			ops = ops[:800]
		}
		h := newViewHarness(t, batch.Objective(obj%2), int64(obj))
		for i := 0; i+1 < len(ops); i += 2 {
			h.step(ops[i], ops[i+1])
		}
		h.publish()
		h.recheck()
	})
}

// TestViewConcurrentReaders: readers hold old and new views, building
// snapshots and looking requests up, while the writer churns the pool
// and publishes a view per cycle. Run under -race, any write the writer
// makes into memory a published view reaches is a reported race.
func TestViewConcurrentReaders(t *testing.T) {
	h := newViewHarness(t, batch.Payoff, 9)
	for i := 0; i < 200; i++ {
		h.step(0, byte(i))
	}
	var cur atomic.Pointer[View]
	cur.Store(h.publish())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []*View
			var heldSnaps []*Snapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := cur.Load()
				s := v.Snapshot()
				if len(s.Requests) != v.Open || len(s.Plan.Serving) != v.Serving {
					t.Errorf("view epoch %d: snapshot has %d/%d requests/served, view counts %d/%d",
						v.Epoch, len(s.Requests), len(s.Plan.Serving), v.Open, v.Serving)
					return
				}
				for _, rs := range s.Requests {
					if got, ok := v.Request(rs.ID); !ok || !reflect.DeepEqual(got, rs) {
						t.Errorf("view epoch %d: Request(%s) disagrees with its snapshot", v.Epoch, rs.ID)
						return
					}
				}
				reads.Add(1)
				held = append(held, v)
				heldSnaps = append(heldSnaps, s)
				if len(held) > 4 {
					held, heldSnaps = held[1:], heldSnaps[1:]
				}
				for i, old := range held {
					if err := sameSnapshot(old.Snapshot(), heldSnaps[i]); err != nil {
						t.Errorf("held view epoch %d moved: %v", old.Epoch, err)
						return
					}
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(9))
	// Churn until the readers have overlapped plenty of publishes (or
	// have stopped on an error).
	for cycle := 0; cycle < 300 || (reads.Load() < 100 && !t.Failed()); cycle++ {
		h.m.Begin()
		for j := 0; j < 1+rng.Intn(8); j++ {
			op := byte(rng.Intn(5))
			h.step(op, byte(rng.Intn(256)))
		}
		h.m.Commit()
		cur.Store(h.m.Publish())
	}
	close(stop)
	wg.Wait()
}

// TestViewObjectiveMatchesBatchStrat: the published objective and
// workforce are BatchStrat's over the open pool, bit for bit, under
// both objectives, on a synthetic pool large enough that summation
// order shows in the low bits.
func TestViewObjectiveMatchesBatchStrat(t *testing.T) {
	for _, obj := range []batch.Objective{batch.Throughput, batch.Payoff} {
		t.Run(obj.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			gen := synth.DefaultConfig(synth.Uniform)
			set := gen.Strategies(rng, 40)
			models := gen.Models(rng, set)
			m, err := NewManager(set, models, workforce.MaxCase, obj, 0.6)
			if err != nil {
				t.Fatal(err)
			}
			reqs := gen.Requests(rng, 1500, 3)
			for i := range reqs {
				reqs[i].ID = mkID("b", i)
				if _, err := m.Submit(reqs[i]); err != nil {
					t.Fatal(err)
				}
				if i%7 == 3 {
					if err := m.Revoke(reqs[i-2].ID); err != nil {
						t.Fatal(err)
					}
				}
				if i%250 == 0 {
					if err := m.SetAvailability(0.3 + 0.6*rng.Float64()); err != nil {
						t.Fatal(err)
					}
				}
			}
			v := m.Publish()
			var items []batch.Item
			for _, rs := range v.Snapshot().Requests {
				if rs.Feasible {
					items = append(items, batch.Item{Index: int(rs.Seq), Value: itemValue(obj, rs.Request),
						Workforce: rs.Workforce, Strategies: rs.Strategies})
				}
			}
			want := batch.BatchStrat(items, v.Availability)
			if math.Float64bits(v.Objective) != math.Float64bits(want.Objective) ||
				math.Float64bits(v.Workforce) != math.Float64bits(want.Workforce) {
				t.Fatalf("view totals (%v, %v), BatchStrat (%v, %v)", v.Objective, v.Workforce, want.Objective, want.Workforce)
			}
			if v.Serving != len(want.Selected) {
				t.Fatalf("view serves %d, BatchStrat selects %d", v.Serving, len(want.Selected))
			}
		})
	}
}

// allocsPerLevel is what copying one more trie level costs: the node
// and its slot array.
const allocsPerLevel = 2

// TestPublishAllocsIndependentOfPool pins O(changed) publishing with a
// count instead of a timer: one submit plus Publish allocates the same
// at a 1k- and a 16k-request pool, give or take one trie level. Copying
// the pool per publish would cost thousands more allocations at 16k.
func TestPublishAllocsIndependentOfPool(t *testing.T) {
	const runs = 200
	allocs := map[int]float64{}
	for _, n := range []int{1000, 16000} {
		// A requirement of 1.25e-5 per request keeps every request served
		// at W=1, so a submit changes its own leaf and nothing else.
		m, err := NewManager(fixedSet(5), fixedModels(5), workforce.MaxCase, batch.Throughput, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, n+runs+1)
		for i := range ids {
			ids[i] = mkID("p", i)
		}
		for _, id := range ids[:n] {
			if _, err := m.Submit(request(id, 0.20001, 1)); err != nil {
				t.Fatal(err)
			}
		}
		next := n
		var v *View
		allocs[n] = testing.AllocsPerRun(runs, func() {
			if _, err := m.Submit(request(ids[next], 0.20001, 1)); err != nil {
				panic(err)
			}
			next++
			v = m.Publish()
		})
		if v.Open != next || v.Serving != next {
			t.Fatalf("pool %d: view open %d serving %d, want %d served", n, v.Open, v.Serving, next)
		}
	}
	if d := allocs[16000] - allocs[1000]; d > allocsPerLevel || d < -allocsPerLevel {
		t.Fatalf("submit+Publish allocates %v at 1k requests and %v at 16k: the cost grows with the pool", allocs[1000], allocs[16000])
	}
	t.Logf("submit+Publish allocations: %v at 1k, %v at 16k", allocs[1000], allocs[16000])
}
