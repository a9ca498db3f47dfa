package conformance

import (
	"errors"
	"math"
	"net/http"
	"sort"

	"stratrec/internal/adpar"
	"stratrec/internal/batch"
	"stratrec/internal/server"
	"stratrec/internal/strategy"
	"stratrec/internal/workforce"
)

// tenantModel is the naive stream-replay oracle: the same semantics as
// stream.Manager behind internal/server, re-derived the slow, obvious way.
// Every event recomputes every open request's workforce requirement from
// scratch and replans over the whole pool; there is no cached requirement,
// no incremental planner, no epoch-published snapshot, no warm ADPaR
// index, no event loop, no op coalescing. If the serving stack's caching,
// incremental plan repair, snapshot publication or request routing is
// wrong in any way that reaches an observable, this model disagrees with
// the HTTP response.
//
// Coalescing-awareness: the serving stack may apply any number of queued
// mutations per replan cycle. Pool state, plan snapshots and epochs are
// batch-independent — the plan is a pure function of the live pool and
// availability, and the epoch is a pool-generation counter (one step per
// applied mutation) — so those expectations hold at every coalescing
// level. A submit's served flag is NOT batch-independent: the server
// reads it from the plan published with the acknowledgement, so a denser
// submit coalesced into the same batch can displace an earlier one
// before its ack. The harness replay is strictly sequential (one
// in-flight request, reply sent only after the publish), which pins
// every batch at one op, making this model's one-event-at-a-time served
// expectation exact for everything the harness can drive; a concurrent
// driver would have to treat served as batch-dependent.
//
// The model deliberately reuses the leaf algorithms (workforce
// .RequirementFor, batch.BatchStrat) — they are deterministic functions,
// and their own correctness is covered by the other two oracle layers:
// adpar.BruteForceK for alternatives and batch.BranchAndBound for the
// achieved objective.
type tenantModel struct {
	spec      TenantSpec
	set       strategy.Set
	models    workforce.PerStrategyModels
	mode      workforce.Mode
	objective batch.Objective

	w       float64
	order   []string // admission order
	reqs    map[string]strategy.Request
	serving map[string]bool
	epoch   uint64
	// subSeq mirrors stream.Manager's monotonic submission counter: the
	// reqIdx handed to workforce.RequirementFor is the request's
	// submission number, never a reused pool position, so the oracle and
	// the serving stack compute requirements under the identical
	// ModelProvider contract.
	subSeq  map[string]uint64
	nextSub uint64

	// last replan products, consumed by plan expectations and the
	// branch-and-bound optimality layer.
	lastReqs  map[string]workforce.Requirement
	lastItems []batch.Item
}

func newTenantModel(spec TenantSpec) (*tenantModel, error) {
	set, models, obj, mode, err := spec.materialize()
	if err != nil {
		return nil, err
	}
	m := &tenantModel{
		spec:      spec,
		set:       set,
		models:    models,
		mode:      mode,
		objective: obj,
		w:         spec.InitialW,
		reqs:      map[string]strategy.Request{},
		serving:   map[string]bool{},
		subSeq:    map[string]uint64{},
		lastReqs:  map[string]workforce.Requirement{},
	}
	m.replan()
	return m, nil
}

// tenantConfig is the server tenant the model mirrors: the same catalog,
// models, mode, objective and initial availability. Callers add the
// serving knobs their oracle needs.
func (m *tenantModel) tenantConfig() server.TenantConfig {
	return server.TenantConfig{
		Set:       m.set,
		Models:    m.models,
		Mode:      m.mode,
		Objective: m.objective,
		InitialW:  m.spec.InitialW,
	}
}

func (m *tenantModel) value(d strategy.Request) float64 {
	if m.objective == batch.Payoff {
		return d.Cost
	}
	return 1
}

// replan recomputes the serving set from scratch: every requirement
// re-derived, item identity and tie-breaks identical to stream.Manager's
// incremental planner (items keyed by submission sequence number, so
// density ties break by admission order). The epoch is NOT touched here —
// it is a pool-generation counter the apply* methods advance on every
// applied mutation, serving-set change or not, mirroring the manager.
func (m *tenantModel) replan() {
	ids := append([]string(nil), m.order...)
	sort.Strings(ids)
	m.lastReqs = make(map[string]workforce.Requirement, len(ids))
	m.lastItems = m.lastItems[:0]
	for _, id := range ids {
		d := m.reqs[id]
		req := workforce.RequirementFor(d, m.subSeq[id], m.set, m.models, m.mode)
		m.lastReqs[id] = req
		if !req.Feasible() {
			continue
		}
		m.lastItems = append(m.lastItems, batch.Item{
			Index:      int(m.subSeq[id]),
			Value:      m.value(d),
			Workforce:  req.Workforce,
			Strategies: req.Strategies,
		})
	}
	res := batch.BatchStrat(m.lastItems, m.w)
	for _, id := range ids {
		m.serving[id] = res.IsSelected(int(m.subSeq[id]))
	}
}

// --- expectations ---

// planRequestExpect is one open request's expected plan row.
type planRequestExpect struct {
	id         string
	request    strategy.Request
	serving    bool
	feasible   bool
	workforce  float64 // meaningful when feasible
	strategies []int   // expected when serving
}

// planExpect is the oracle's expected PlanResponse.
type planExpect struct {
	epoch        uint64
	availability float64
	objective    float64
	workforce    float64
	serving      []string
	displaced    []string
	requests     []planRequestExpect
}

// altExpect is the oracle's expected alternative outcome: either an error
// status or the brute-force reference solution.
type altExpect struct {
	// covered is the exact satisfier count at the optimal alternative,
	// recomputed with strategy.Satisfies.
	distance float64
	k        int
}

// expectation is the oracle's verdict for one event, derived before the
// comparison and after the model applied the event.
type expectation struct {
	status int
	served bool   // submit only
	epoch  uint64 // mutations and plan
	plan   *planExpect
	alt    *altExpect
}

// applySubmit mirrors handleSubmit + stream.Manager.Submit: empty ID,
// validation, duplicate checks in that order; on success the request is
// admitted and the pool replanned.
func (m *tenantModel) applySubmit(ev Event) expectation {
	d := strategy.Request{
		ID:     ev.ID,
		Params: strategy.Params{Quality: ev.Quality, Cost: ev.Cost, Latency: ev.Latency},
		K:      ev.K,
	}
	if d.K == 0 {
		d.K = 1 // the handler's documented default
	}
	if d.ID == "" {
		return expectation{status: http.StatusBadRequest}
	}
	if d.ID == "." || d.ID == ".." {
		// Rejected at the HTTP layer: dot-segment IDs have no addressable
		// revoke/alternative URL.
		return expectation{status: http.StatusBadRequest}
	}
	if err := d.Validate(); err != nil {
		return expectation{status: http.StatusBadRequest}
	}
	if _, open := m.reqs[d.ID]; open {
		return expectation{status: http.StatusConflict}
	}
	m.reqs[d.ID] = d
	m.order = append(m.order, d.ID)
	m.subSeq[d.ID] = m.nextSub
	m.nextSub++
	m.epoch++
	m.replan()
	return expectation{status: http.StatusOK, served: m.serving[d.ID], epoch: m.epoch}
}

func (m *tenantModel) applyRevoke(ev Event) expectation {
	if _, open := m.reqs[ev.ID]; !open {
		return expectation{status: http.StatusNotFound}
	}
	delete(m.reqs, ev.ID)
	delete(m.serving, ev.ID)
	delete(m.subSeq, ev.ID)
	for i, id := range m.order {
		if id == ev.ID {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.epoch++
	m.replan()
	return expectation{status: http.StatusOK, epoch: m.epoch}
}

func (m *tenantModel) applyDrift(ev Event) expectation {
	w := ev.Availability
	if w < 0 || w > 1 || math.IsNaN(w) {
		return expectation{status: http.StatusBadRequest}
	}
	m.w = w
	m.epoch++
	m.replan()
	return expectation{status: http.StatusOK, epoch: m.epoch}
}

// expectPlan freezes the model's current plan the way Manager.Plan and
// Snapshot do: admission order, objective and workforce summed over
// serving entries in admission order (so float sums agree bit-for-bit).
func (m *tenantModel) expectPlan() expectation {
	pe := &planExpect{
		epoch:        m.epoch,
		availability: m.w,
		serving:      []string{},
		displaced:    []string{},
	}
	for _, id := range m.order {
		req := m.lastReqs[id]
		pr := planRequestExpect{
			id:        id,
			request:   m.reqs[id],
			serving:   m.serving[id],
			feasible:  req.Feasible(),
			workforce: req.Workforce,
		}
		if pr.serving {
			pe.serving = append(pe.serving, id)
			pe.workforce += req.Workforce
			pe.objective += m.value(m.reqs[id])
			pr.strategies = req.Strategies
		} else {
			pe.displaced = append(pe.displaced, id)
		}
		pe.requests = append(pe.requests, pr)
	}
	return expectation{status: http.StatusOK, epoch: m.epoch, plan: pe}
}

// expectAlternative mirrors Tenant.Alternative's routing (unknown -> 404,
// served -> 409) and solves the surviving instance with the brute-force
// reference.
func (m *tenantModel) expectAlternative(ev Event) (expectation, error) {
	d, open := m.reqs[ev.ID]
	if !open {
		return expectation{status: http.StatusNotFound}, nil
	}
	if m.serving[ev.ID] {
		return expectation{status: http.StatusConflict}, nil
	}
	sol, err := adpar.BruteForceK(m.set, d)
	if err != nil {
		// ErrBadK / ErrNotEnoughStrategies map to 400 in the API;
		// ErrTooLarge means the trace was generated outside oracle limits
		// and is a harness configuration error, not a divergence.
		if errors.Is(err, adpar.ErrTooLarge) {
			return expectation{}, err
		}
		return expectation{status: http.StatusBadRequest}, nil
	}
	return expectation{
		status: http.StatusOK,
		alt:    &altExpect{distance: sol.Distance, k: d.K},
	}, nil
}

// coverCount recounts, with the public satisfaction predicate, how many
// catalog strategies an alternative covers. Used to validate the served
// alternative independently of both solvers.
func (m *tenantModel) coverCount(alt strategy.Params) int {
	n := 0
	for _, s := range m.set {
		if strategy.Satisfies(s.Params, alt) {
			n++
		}
	}
	return n
}

// satisfies reports whether one strategy (by ID) satisfies the alternative.
func (m *tenantModel) satisfies(id int, alt strategy.Params) bool {
	for _, s := range m.set {
		if s.ID == id {
			return strategy.Satisfies(s.Params, alt)
		}
	}
	return false
}

// optimality runs the branch-and-bound layer over the model's current
// items: the live plan's objective must be exactly optimal for throughput
// (Theorem 2) and at least half of optimal for pay-off (Theorem 3). It
// returns want/got strings when violated.
func (m *tenantModel) optimality(achieved float64) (ok bool, want, got string) {
	opt := batch.BranchAndBound(m.lastItems, m.w)
	eps := 1e-9 * math.Max(1, opt.Objective)
	if achieved > opt.Objective+eps {
		return false, formatFloat(opt.Objective) + " (exact optimum, upper bound)", formatFloat(achieved)
	}
	factor := 1.0
	if m.objective == batch.Payoff {
		factor = 0.5
	}
	if achieved < factor*opt.Objective-eps {
		return false, ">= " + formatFloat(factor*opt.Objective) + " (guarantee vs exact optimum " + formatFloat(opt.Objective) + ")", formatFloat(achieved)
	}
	return true, "", ""
}
