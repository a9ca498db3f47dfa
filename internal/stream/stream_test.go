package stream

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"stratrec/internal/adpar"
	"stratrec/internal/batch"
	"stratrec/internal/linmodel"
	"stratrec/internal/strategy"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// Plan returns the current plan: Snapshot().Plan.
func (m *Manager) Plan() Plan { return m.Snapshot().Plan }

// Request returns the state of an open request by ID.
func (s *Snapshot) Request(id string) (RequestState, bool) {
	if s == nil {
		return RequestState{}, false
	}
	for _, rs := range s.Requests {
		if rs.ID == id {
			return rs, true
		}
	}
	return RequestState{}, false
}

// Strategies returns the k recommended strategies of a served request, or
// nil if the request is not currently served.
func (m *Manager) Strategies(id string) []int {
	l, ok := m.lookup(id)
	if !ok || !l.serving {
		return nil
	}
	return slices.Clone(l.rec.req.Strategies)
}

// fixedModels yields a requirement equal to (quality threshold - 0.2) /
// 0.8 for every strategy, making plan arithmetic predictable.
func fixedModels(n int) workforce.PerStrategyModels {
	models := make(workforce.PerStrategyModels, n)
	for i := range models {
		models[i] = linmodel.ParamModels{
			Quality: linmodel.Model{Alpha: 0.8, Beta: 0.2},
			Cost:    linmodel.Model{Alpha: 0, Beta: 0.1},
			Latency: linmodel.Model{Alpha: 0, Beta: 0.1},
		}
	}
	return models
}

func fixedSet(n int) strategy.Set {
	set := make(strategy.Set, n)
	for i := range set {
		set[i] = strategy.Strategy{ID: i, Params: strategy.Params{Quality: 1, Cost: 0.1, Latency: 0.1}}
	}
	return set
}

func request(id string, quality float64, k int) strategy.Request {
	return strategy.Request{
		ID:     id,
		Params: strategy.Params{Quality: quality, Cost: 0.5, Latency: 0.5},
		K:      k,
	}
}

func newManager(t *testing.T, W float64) *Manager {
	t.Helper()
	m, err := NewManager(fixedSet(5), fixedModels(5), workforce.MaxCase, batch.Throughput, W)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(strategy.Set{}, fixedModels(1), workforce.MaxCase, batch.Throughput, 0.5); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewManager(fixedSet(2), nil, workforce.MaxCase, batch.Throughput, 0.5); err == nil {
		t.Error("nil models accepted")
	}
	if _, err := NewManager(fixedSet(2), fixedModels(2), workforce.MaxCase, batch.Throughput, 1.5); err == nil {
		t.Error("bad availability accepted")
	}
}

func TestSubmitAndServe(t *testing.T) {
	m := newManager(t, 0.5)
	// Quality 0.52 -> requirement (0.52-0.2)/0.8 = 0.4 <= 0.5: served.
	served, err := m.Submit(request("a", 0.52, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !served {
		t.Fatal("affordable request not served")
	}
	plan := m.Plan()
	if len(plan.Serving) != 1 || plan.Serving[0] != "a" {
		t.Errorf("plan = %+v", plan)
	}
	if math.Abs(plan.Workforce-0.4) > 1e-12 {
		t.Errorf("workforce = %v", plan.Workforce)
	}
	if got := m.Strategies("a"); len(got) != 2 {
		t.Errorf("strategies = %v", got)
	}
	if got := m.Strategies("missing"); got != nil {
		t.Errorf("strategies of unknown = %v", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(t, 0.5)
	if _, err := m.Submit(strategy.Request{Params: strategy.Params{Quality: 0.5, Cost: 0.5, Latency: 0.5}, K: 1}); err == nil {
		t.Error("missing ID accepted")
	}
	if _, err := m.Submit(request("a", 2.0, 1)); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := m.Submit(request("a", 0.5, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(request("a", 0.5, 1)); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate error = %v", err)
	}
}

// TestResubmitAfterRevoke: a revoked ID is forgotten, so resubmitting it
// is a fresh admission, not ErrDuplicateID — the documented Submit
// contract.
func TestResubmitAfterRevoke(t *testing.T) {
	m := newManager(t, 0.5)
	if _, err := m.Submit(request("a", 0.52, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(request("a", 0.52, 1)); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("open duplicate error = %v", err)
	}
	if err := m.Revoke("a"); err != nil {
		t.Fatal(err)
	}
	// Resubmission with different parameters succeeds and uses the new
	// requirement, proving no stale state survived the revocation.
	served, err := m.Submit(request("a", 0.36, 1)) // req (0.36-0.2)/0.8 = 0.2
	if err != nil {
		t.Fatalf("resubmit after revoke = %v", err)
	}
	if !served {
		t.Fatal("resubmitted request not served")
	}
	if w := m.Plan().Workforce; math.Abs(w-0.2) > 1e-12 {
		t.Errorf("resubmitted workforce = %v, want 0.2 (fresh requirement)", w)
	}
	if m.Open() != 1 {
		t.Errorf("open = %d", m.Open())
	}
}

// TestSubmitErrorPaths: every Submit error is a stable sentinel (or a
// validation error) and leaves the manager untouched.
func TestSubmitErrorPaths(t *testing.T) {
	m := newManager(t, 0.5)
	if _, err := m.Submit(request("keep", 0.52, 1)); err != nil {
		t.Fatal(err)
	}
	epoch := m.Epoch()
	cases := []struct {
		name string
		req  strategy.Request
		want error // nil means "any non-nil error"
	}{
		{"empty id", request("", 0.5, 1), ErrEmptyID},
		{"duplicate id", request("keep", 0.5, 1), ErrDuplicateID},
		{"bad quality", request("x", 2.0, 1), strategy.ErrBadParam},
		{"bad k", request("x", 0.5, 0), strategy.ErrBadCardinality},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := m.Submit(tc.req)
			if err == nil {
				t.Fatal("error expected")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want %v", err, tc.want)
			}
			if m.Open() != 1 || m.Epoch() != epoch {
				t.Errorf("failed submit mutated manager: open=%d epoch=%d", m.Open(), m.Epoch())
			}
		})
	}
}

// TestRevokeEdgeCases drives Revoke through its edge cases table-style.
func TestRevokeEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		setup  []string // IDs submitted beforehand
		revoke string
		want   error
	}{
		{"empty manager", nil, "a", ErrUnknownID},
		{"unknown id", []string{"a"}, "b", ErrUnknownID},
		{"empty id", []string{"a"}, "", ErrUnknownID},
		{"known id", []string{"a", "b"}, "a", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newManager(t, 0.5)
			for _, id := range tc.setup {
				if _, err := m.Submit(request(id, 0.52, 1)); err != nil {
					t.Fatal(err)
				}
			}
			err := m.Revoke(tc.revoke)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("revoke = %v", err)
				}
				if err := m.Revoke(tc.revoke); !errors.Is(err, ErrUnknownID) {
					t.Errorf("double revoke error = %v", err)
				}
				if m.Open() != len(tc.setup)-1 {
					t.Errorf("open = %d", m.Open())
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want %v", err, tc.want)
			}
			if m.Open() != len(tc.setup) {
				t.Errorf("failed revoke mutated pool: open = %d", m.Open())
			}
		})
	}
}

// TestSetAvailabilityEdgeCases drives SetAvailability through boundary and
// invalid values.
func TestSetAvailabilityEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		w    float64
		ok   bool
	}{
		{"zero", 0, true},
		{"one", 1, true},
		{"interior", 0.37, true},
		{"negative", -0.01, false},
		{"above one", 1.01, false},
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newManager(t, 0.5)
			err := m.SetAvailability(tc.w)
			if tc.ok {
				if err != nil {
					t.Fatalf("SetAvailability(%v) = %v", tc.w, err)
				}
				if m.Availability() != tc.w {
					t.Errorf("availability = %v", m.Availability())
				}
				return
			}
			if !errors.Is(err, ErrBadAvailability) {
				t.Errorf("error = %v, want ErrBadAvailability", err)
			}
			if m.Availability() != 0.5 {
				t.Errorf("failed update moved availability to %v", m.Availability())
			}
		})
	}
	// The constructor applies the same predicate.
	if _, err := NewManager(fixedSet(2), fixedModels(2), workforce.MaxCase, batch.Throughput, math.NaN()); !errors.Is(err, ErrBadAvailability) {
		t.Errorf("NewManager(NaN) error = %v", err)
	}
}

// TestSnapshotIsImmutableCopy: a snapshot reflects the state at capture
// time and survives later mutations untouched.
func TestSnapshotIsImmutableCopy(t *testing.T) {
	m := newManager(t, 0.5)
	if _, err := m.Submit(request("a", 0.52, 2)); err != nil { // req 0.4: served
		t.Fatal(err)
	}
	if _, err := m.Submit(request("c", 0.60, 1)); err != nil { // req 0.5: displaced
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.Epoch != m.Epoch() || snap.Availability != 0.5 {
		t.Errorf("snapshot header = %+v", snap)
	}
	if len(snap.Requests) != 2 || snap.Requests[0].ID != "a" || snap.Requests[1].ID != "c" {
		t.Fatalf("snapshot requests = %+v", snap.Requests)
	}
	a, ok := snap.Request("a")
	if !ok || !a.Serving || !a.Feasible || len(a.Strategies) != 2 {
		t.Errorf("request a = %+v ok=%v", a, ok)
	}
	c, ok := snap.Request("c")
	if !ok || c.Serving {
		t.Errorf("request c = %+v ok=%v", c, ok)
	}
	if _, ok := snap.Request("nope"); ok {
		t.Error("unknown id found in snapshot")
	}
	if len(snap.Plan.Serving) != 1 || snap.Plan.Serving[0] != "a" {
		t.Errorf("snapshot plan = %+v", snap.Plan)
	}

	// Mutate the manager; the old snapshot must not move.
	if err := m.Revoke("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Request("a"); !ok {
		t.Error("snapshot lost a revoked request")
	}
	if len(snap.Plan.Serving) != 1 {
		t.Errorf("snapshot plan mutated: %+v", snap.Plan)
	}
	if snap2 := m.Snapshot(); len(snap2.Requests) != 1 || snap2.Requests[0].ID != "c" {
		t.Errorf("fresh snapshot = %+v", snap2.Requests)
	}
	var nilSnap *Snapshot
	if _, ok := nilSnap.Request("a"); ok {
		t.Error("nil snapshot answered a lookup")
	}
}

// TestAttachIndex: an externally compiled index is shared verbatim, and a
// mismatched one is rejected.
func TestAttachIndex(t *testing.T) {
	m := newManager(t, 0.5)
	ix, err := adpar.NewIndex(fixedSet(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachIndex(ix); err != nil {
		t.Fatal(err)
	}
	got, err := m.Index()
	if err != nil {
		t.Fatal(err)
	}
	if got != ix {
		t.Error("Index() did not return the attached index")
	}
	if err := m.AttachIndex(nil); err == nil {
		t.Error("nil index accepted")
	}
	wrong, err := adpar.NewIndex(fixedSet(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachIndex(wrong); err == nil {
		t.Error("size-mismatched index accepted")
	}
	// Lazy compilation still works on a fresh manager, and the compiled
	// index is retained.
	m2 := newManager(t, 0.5)
	ix1, err := m2.Index()
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := m2.Index()
	if err != nil {
		t.Fatal(err)
	}
	if ix1 != ix2 {
		t.Error("Index() recompiled on second call")
	}
}

func TestDisplacementAndRevocation(t *testing.T) {
	m := newManager(t, 0.5)
	// Two cheap requests (0.25 each) fill W = 0.5 exactly.
	if _, err := m.Submit(request("a", 0.40, 1)); err != nil { // req 0.25
		t.Fatal(err)
	}
	if _, err := m.Submit(request("b", 0.40, 1)); err != nil { // req 0.25
		t.Fatal(err)
	}
	served, err := m.Submit(request("c", 0.60, 1)) // req 0.5, cannot fit
	if err != nil {
		t.Fatal(err)
	}
	if served {
		t.Fatal("oversubscribed request served")
	}
	plan := m.Plan()
	if len(plan.Serving) != 2 || len(plan.Displaced) != 1 || plan.Displaced[0] != "c" {
		t.Fatalf("plan = %+v", plan)
	}

	// Revoking both cheap requests frees room for c.
	if err := m.Revoke("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke("b"); err != nil {
		t.Fatal(err)
	}
	plan = m.Plan()
	if len(plan.Serving) != 1 || plan.Serving[0] != "c" {
		t.Fatalf("after revocations plan = %+v", plan)
	}
	if err := m.Revoke("a"); !errors.Is(err, ErrUnknownID) {
		t.Errorf("double revoke error = %v", err)
	}
	if m.Open() != 1 {
		t.Errorf("open = %d", m.Open())
	}
}

func TestAvailabilityDrift(t *testing.T) {
	m := newManager(t, 0.5)
	if _, err := m.Submit(request("a", 0.52, 1)); err != nil { // req 0.4
		t.Fatal(err)
	}
	plan := m.Plan()
	if len(plan.Serving) != 1 {
		t.Fatal("not served at W=0.5")
	}
	// Availability collapses below the requirement: plan drops the request.
	if err := m.SetAvailability(0.3); err != nil {
		t.Fatal(err)
	}
	if plan = m.Plan(); len(plan.Serving) != 0 || len(plan.Displaced) != 1 {
		t.Fatalf("after drought plan = %+v", plan)
	}
	// Recovery restores it.
	if err := m.SetAvailability(0.9); err != nil {
		t.Fatal(err)
	}
	if plan = m.Plan(); len(plan.Serving) != 1 {
		t.Fatalf("after recovery plan = %+v", plan)
	}
	if err := m.SetAvailability(-0.1); err == nil {
		t.Error("negative availability accepted")
	}
}

// TestEpochAdvancesOnEveryMutation pins the pool-generation semantics of
// the epoch: every applied mutation advances it by exactly one — submits
// that land displaced and revokes that flip no serving flag included — so
// epoch pollers and If-None-Match-style clients never miss a pool change.
// (The old behavior, bumping only when a Serving flag flipped, silently
// swallowed exactly those mutations.)
func TestEpochAdvancesOnEveryMutation(t *testing.T) {
	m := newManager(t, 0.5)
	if _, err := m.Submit(request("a", 0.52, 1)); err != nil { // req 0.4: served
		t.Fatal(err)
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch after first submit = %d, want 1", m.Epoch())
	}
	// This submit lands displaced (0.4+0.4 > 0.5): no serving flag flips,
	// but the pool changed, so the epoch must advance.
	served, err := m.Submit(request("b", 0.52, 1))
	if err != nil {
		t.Fatal(err)
	}
	if served {
		t.Fatal("oversubscribed request served")
	}
	if m.Epoch() != 2 {
		t.Fatalf("epoch after displaced submit = %d, want 2", m.Epoch())
	}
	// Revoking the displaced request flips no serving flag either; still a
	// pool mutation, still an epoch step.
	if err := m.Revoke("b"); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 3 {
		t.Fatalf("epoch after no-flip revoke = %d, want 3", m.Epoch())
	}
	// A plan-preserving availability change is an applied mutation too.
	if err := m.SetAvailability(0.55); err != nil {
		t.Fatal(err)
	}
	if m.Epoch() != 4 {
		t.Fatalf("epoch after availability move = %d, want 4", m.Epoch())
	}
	// Rejected mutations leave the epoch untouched.
	if err := m.SetAvailability(1.5); err == nil {
		t.Fatal("bad availability accepted")
	}
	if err := m.Revoke("nope"); !errors.Is(err, ErrUnknownID) {
		t.Fatalf("revoke unknown = %v", err)
	}
	if _, err := m.Submit(request("a", 0.5, 1)); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate submit = %v", err)
	}
	if m.Epoch() != 4 {
		t.Fatalf("epoch after rejected mutations = %d, want 4", m.Epoch())
	}
}

func TestInfeasibleRequestNeverServed(t *testing.T) {
	m := newManager(t, 1.0)
	// k = 6 exceeds the 5-strategy catalog: infeasible forever.
	served, err := m.Submit(request("big", 0.5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if served {
		t.Fatal("infeasible request served")
	}
	plan := m.Plan()
	if len(plan.Displaced) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
}

// TestAlternativeSharedIndex: displaced requests get ADPaR alternatives
// from the manager's shared index, identical to a from-scratch Exact run on
// the same strategy set; served and unknown requests are rejected.
func TestAlternativeSharedIndex(t *testing.T) {
	m := newManager(t, 0.5)
	if _, err := m.Submit(request("a", 0.40, 1)); err != nil { // req 0.25, served
		t.Fatal(err)
	}
	if _, err := m.Submit(request("b", 0.40, 1)); err != nil { // req 0.25, served
		t.Fatal(err)
	}
	displaced := request("c", 0.60, 2) // req 0.5, cannot fit
	if _, err := m.Submit(displaced); err != nil {
		t.Fatal(err)
	}

	sol, err := m.Alternative("c")
	if err != nil {
		t.Fatal(err)
	}
	want, err := adpar.Exact(fixedSet(5), displaced)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Alternative != want.Alternative || sol.Distance != want.Distance {
		t.Errorf("shared-index alternative = %+v (distance %v), want %+v (distance %v)",
			sol.Alternative, sol.Distance, want.Alternative, want.Distance)
	}
	if len(sol.Covered) < displaced.K {
		t.Errorf("alternative covers %d < k=%d strategies", len(sol.Covered), displaced.K)
	}

	if _, err := m.Alternative("a"); !errors.Is(err, ErrServed) {
		t.Errorf("served request error = %v", err)
	}
	if _, err := m.Alternative("nope"); !errors.Is(err, ErrUnknownID) {
		t.Errorf("unknown request error = %v", err)
	}

	// The index survives plan churn: after revocations free capacity the
	// previously displaced request is served and loses its alternative,
	// while a new displaced request still gets one.
	if err := m.Revoke("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alternative("c"); !errors.Is(err, ErrServed) {
		t.Errorf("after revocations error = %v", err)
	}
}

// TestPropertyMatchesStaticBatchStrat: after any event sequence, the
// dynamic plan's objective equals a fresh static BatchStrat run over the
// open requests — the manager loses nothing to history.
func TestPropertyMatchesStaticBatchStrat(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	gen := synth.DefaultConfig(synth.Uniform)
	f := func() bool {
		set := gen.Strategies(rng, 40)
		models := gen.Models(rng, set)
		W := rng.Float64()
		m, err := NewManager(set, models, workforce.MaxCase, batch.Throughput, W)
		if err != nil {
			return false
		}
		var open []strategy.Request
		nextID := 0
		for step := 0; step < 30; step++ {
			switch {
			case len(open) > 0 && rng.Float64() < 0.3:
				victim := rng.Intn(len(open))
				if err := m.Revoke(open[victim].ID); err != nil {
					return false
				}
				open = append(open[:victim], open[victim+1:]...)
			case rng.Float64() < 0.15:
				W = rng.Float64()
				if err := m.SetAvailability(W); err != nil {
					return false
				}
			default:
				d := gen.Requests(rng, 1, 1+rng.Intn(4))[0]
				d.ID = mkID("r", nextID)
				nextID++
				if _, err := m.Submit(d); err != nil {
					return false
				}
				open = append(open, d)
			}
		}
		// Static reference over the open pool.
		reqs := make([]workforce.Requirement, len(open))
		for i, d := range open {
			reqs[i] = workforce.RequirementFor(d, uint64(i), set, models, workforce.MaxCase)
		}
		items := batch.BuildItems(open, reqs, batch.Throughput)
		want := batch.BatchStrat(items, W).Objective
		got := m.Plan().Objective
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func mkID(prefix string, n int) string {
	digits := "0123456789"
	if n == 0 {
		return prefix + "0"
	}
	out := ""
	for n > 0 {
		out = string(digits[n%10]) + out
		n /= 10
	}
	return prefix + out
}

// TestBeginCommitBatchEquivalence: a Begin/Commit batch of events lands
// on exactly the state that applying them one-by-one produces — same
// serving flags, same epoch, same plan sums — while deferring the replan.
func TestBeginCommitBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := synth.DefaultConfig(synth.Uniform)
	set := gen.Strategies(rng, 24)
	models := gen.Models(rng, set)
	reqs := gen.Requests(rng, 120, 2)
	for i := range reqs {
		reqs[i].ID = mkID("d", i)
	}

	seqMgr, err := NewManager(set, models, workforce.MaxCase, batch.Throughput, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	batMgr, err := NewManager(set, models, workforce.MaxCase, batch.Throughput, 0.6)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-generate one deterministic event list (self-consistent revokes)
	// so both managers replay the identical stream.
	type event struct {
		kind int // 0 submit, 1 revoke, 2 drift
		id   string
		req  strategy.Request
		w    float64
	}
	var events []event
	var open []string
	for i := 0; i < 120; i++ {
		switch {
		case len(open) > 5 && i%7 == 3:
			j := rng.Intn(len(open))
			events = append(events, event{kind: 1, id: open[j]})
			open = append(open[:j], open[j+1:]...)
		case i%13 == 5:
			events = append(events, event{kind: 2, w: 0.3 + 0.005*float64(i%60)})
		default:
			events = append(events, event{kind: 0, req: reqs[i]})
			open = append(open, reqs[i].ID)
		}
	}
	apply := func(m *Manager, from, to int) {
		t.Helper()
		for _, ev := range events[from:to] {
			switch ev.kind {
			case 0:
				if _, err := m.Submit(ev.req); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := m.Revoke(ev.id); err != nil {
					t.Fatal(err)
				}
			case 2:
				if err := m.SetAvailability(ev.w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Sequential: every event replans. Batched: chunks of 15 events per
	// Begin/Commit window.
	apply(seqMgr, 0, 120)
	for from := 0; from < 120; from += 15 {
		batMgr.Begin()
		apply(batMgr, from, from+15)
		batMgr.Commit()
	}

	if seqMgr.Epoch() != batMgr.Epoch() {
		t.Fatalf("epoch diverged: sequential %d, batched %d", seqMgr.Epoch(), batMgr.Epoch())
	}
	want, got := seqMgr.Snapshot(), batMgr.Snapshot()
	if len(want.Requests) != len(got.Requests) {
		t.Fatalf("open diverged: %d vs %d", len(want.Requests), len(got.Requests))
	}
	for i, w := range want.Requests {
		g := got.Requests[i]
		if w.ID != g.ID || w.Serving != g.Serving || w.Seq != g.Seq || w.Workforce != g.Workforce {
			t.Fatalf("request %d diverged:\nseq %+v\nbat %+v", i, w, g)
		}
	}
	if want.Plan.Objective != got.Plan.Objective || want.Plan.Workforce != got.Plan.Workforce {
		t.Fatalf("plan sums diverged: (%v,%v) vs (%v,%v)",
			want.Plan.Objective, want.Plan.Workforce, got.Plan.Objective, got.Plan.Workforce)
	}

	// Served answers from the committed plan and distinguishes unknown IDs.
	for _, rs := range got.Requests {
		served, open := batMgr.Served(rs.ID)
		if !open || served != rs.Serving {
			t.Fatalf("Served(%s) = %v,%v, want %v,true", rs.ID, served, open, rs.Serving)
		}
	}
	if _, open := batMgr.Served("nope"); open {
		t.Fatal("Served reported an unknown ID as open")
	}
}

// TestSubmitSeqOverflowGuard: the submission counter narrows into
// batch.Item.Index exactly once, behind an explicit guard — a sequence
// beyond the int range is rejected, not silently aliased.
func TestSubmitSeqOverflowGuard(t *testing.T) {
	m := newManager(t, 0.5)
	if _, err := m.Resubmit(request("big", 0.4, 1), math.MaxUint64); !errors.Is(err, ErrSeqOverflow) {
		t.Fatalf("Resubmit(MaxUint64) = %v, want ErrSeqOverflow", err)
	}
	if m.Open() != 0 || m.Epoch() != 0 {
		t.Fatalf("rejected overflow mutated manager: open=%d epoch=%d", m.Open(), m.Epoch())
	}
	// The largest representable sequence still admits cleanly.
	if _, err := m.Resubmit(request("edge", 0.4, 1), math.MaxInt); err != nil {
		t.Fatalf("Resubmit(MaxInt) = %v", err)
	}
	if seq, ok := m.SubmissionSeq("edge"); !ok || seq != math.MaxInt {
		t.Fatalf("SubmissionSeq(edge) = %d,%v", seq, ok)
	}
}
