package conformance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"time"

	"stratrec/internal/client"
	"stratrec/internal/server"
	"stratrec/internal/strategy"
)

// RunConfig tunes a conformance run.
type RunConfig struct {
	// Parallelism caps the server's ADPaR sweep workers (0 = GOMAXPROCS).
	// The sweep result is bit-for-bit independent of it, which the run
	// itself re-verifies against the brute-force oracle.
	Parallelism int
	// BranchBoundLimit caps the open-item count at which the exact
	// branch-and-bound optimality layer runs on plan checks (default 48,
	// negative disables).
	BranchBoundLimit int
	// MaxDivergences stops the replay after this many divergences
	// (default 16; the minimizer runs with 1).
	MaxDivergences int
	// ViaBatch routes every mutation through the batched ingest endpoint
	// (POST /v1/tenants/{tenant}/ops) as a one-op batch instead of its
	// single-op endpoint, and checks the per-op result against the same
	// oracle expectation. It proves the two wire surfaces are
	// observationally identical.
	ViaBatch bool
	// Fault, when non-nil, corrupts the observed response before the
	// oracle comparison. It exists for testing the harness itself: a
	// fault simulating a solver bug must be caught and must minimize to a
	// short trace. Production runs leave it nil.
	Fault func(ev Event, obs *Observed)
	// OnEvent, when non-nil, is called before each event replays.
	OnEvent func(i int, ev Event)
}

func (cfg RunConfig) withDefaults() RunConfig {
	if cfg.BranchBoundLimit == 0 {
		cfg.BranchBoundLimit = 48
	}
	if cfg.MaxDivergences <= 0 {
		cfg.MaxDivergences = 16
	}
	return cfg
}

// Observed is the system-under-test's decoded answer to one event: the
// HTTP status plus the kind-specific body. RunConfig.Fault mutates it to
// simulate serving-stack bugs.
type Observed struct {
	Status      int
	Submit      *server.SubmitResponse
	Epoch       *server.EpochResponse
	Plan        *server.PlanResponse
	Alternative *server.AlternativeResponse
}

// Divergence is one oracle disagreement: the event it surfaced at, which
// observable field diverged, and both sides.
type Divergence struct {
	Index int    `json:"index"`
	Event Event  `json:"event"`
	Field string `json:"field"`
	Want  string `json:"want"`
	Got   string `json:"got"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("event %d (%s %s %s): %s: want %s, got %s",
		d.Index, d.Event.Tenant, d.Event.Kind, d.Event.ID, d.Field, d.Want, d.Got)
}

// Result summarizes a conformance run.
type Result struct {
	Events      int
	Checks      int
	Divergences []Divergence
}

// OK reports a divergence-free run.
func (r Result) OK() bool { return len(r.Divergences) == 0 }

// String renders the human-readable summary the conform subcommand prints.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conformance: %d events, %d oracle checks, %d divergences\n",
		r.Events, r.Checks, len(r.Divergences))
	for i, d := range r.Divergences {
		if i == 8 {
			fmt.Fprintf(&b, "  ... %d more\n", len(r.Divergences)-i)
			break
		}
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// Run replays a trace through a real HTTP server hosting the trace's
// tenants and differentially checks every response against the oracle
// layer. The replay is strictly sequential — one in-flight request — so a
// trace's outcome is a pure function of its contents: replies are sent
// only after the tenant event loop has published the mutation's snapshot,
// and the ADPaR sweep is deterministic at any parallelism.
func Run(tr Trace, cfg RunConfig) (Result, error) {
	s, err := newSession(tr, cfg)
	if err != nil {
		return Result{}, err
	}
	// Applied-op counts observed through the deterministic step callback;
	// the loop goroutine writes, and the reply delivered to the blocked
	// caller orders that write before the harness's next read.
	srvCfg := s.serverConfig()
	applied := make(map[string]*int, len(srvCfg.Tenants))
	for name, tc := range srvCfg.Tenants {
		count := new(int)
		applied[name] = count
		tc.OnApply = func(server.AppliedOp) { *count++ }
		srvCfg.Tenants[name] = tc
	}
	n, err := newNode(srvCfg, "", false)
	if err != nil {
		return Result{}, err
	}
	defer n.finish(false)
	if _, err := n.start(); err != nil {
		return Result{}, err
	}
	d := newDriver(n.hs, s.cfg.ViaBatch)
	if _, err := s.replay(d, 0, len(tr.Events)); err != nil {
		return s.res, err
	}

	// Final cross-checks: the tenant listing agrees with every model, and
	// the step callback saw exactly the mutations we issued.
	s.checkListing(d)
	for name, want := range s.applied {
		s.res.Checks++
		if got := *applied[name]; got != want {
			s.diverge(len(tr.Events), Event{Tenant: name, Kind: "on-apply"},
				"applied-op count", strconv.Itoa(want), strconv.Itoa(got))
		}
	}
	return s.res, nil
}

// session is one differential replay of a trace: the oracle models, the
// divergence budget and the result they fill, across however many
// server incarnations the replay spans.
type session struct {
	tr     Trace
	cfg    RunConfig
	models map[string]*tenantModel // one per tenant
	// applied counts, per tenant, the replayed mutations that must reach
	// its event loop.
	applied map[string]int
	res     Result
}

// newSession checks the trace and builds one oracle model per tenant.
func newSession(tr Trace, cfg RunConfig) (*session, error) {
	if tr.Version != FormatVersion {
		return nil, fmt.Errorf("conformance: trace version %d, this build replays %d", tr.Version, FormatVersion)
	}
	s := &session{
		tr:      tr,
		cfg:     cfg.withDefaults(),
		models:  make(map[string]*tenantModel, len(tr.Tenants)),
		applied: map[string]int{},
		res:     Result{Events: len(tr.Events)},
	}
	for _, spec := range tr.Tenants {
		if _, dup := s.models[spec.Name]; dup {
			return nil, fmt.Errorf("conformance: duplicate tenant %q", spec.Name)
		}
		m, err := newTenantModel(spec)
		if err != nil {
			return nil, err
		}
		s.models[spec.Name] = m
	}
	return s, nil
}

// serverConfig hosts every modelled tenant.
func (s *session) serverConfig() server.Config {
	cfg := server.Config{
		Tenants: make(map[string]server.TenantConfig, len(s.models)),
		// Fixed injectable clock: time-derived observables (uptime) stay
		// constant across runs of the same trace.
		Now:         func() time.Time { return time.Unix(1700000000, 0) },
		Parallelism: s.cfg.Parallelism,
	}
	for name, m := range s.models {
		cfg.Tenants[name] = m.tenantConfig()
	}
	return cfg
}

// diverge records one divergence and reports whether the budget is spent.
func (s *session) diverge(i int, ev Event, field, want, got string) bool {
	s.res.Divergences = append(s.res.Divergences, Divergence{
		Index: i, Event: ev, Field: field, Want: want, Got: got,
	})
	return len(s.res.Divergences) >= s.cfg.MaxDivergences
}

// replay sends tr.Events[from:to] to a live server, applies each event
// to the oracle models and compares. It returns true when the divergence
// budget stopped the replay.
func (s *session) replay(d *driver, from, to int) (stopped bool, err error) {
	for i := from; i < to; i++ {
		ev := s.tr.Events[i]
		if s.cfg.OnEvent != nil {
			s.cfg.OnEvent(i, ev)
		}
		m, ok := s.models[ev.Tenant]
		if !ok {
			return false, fmt.Errorf("conformance: event %d targets unknown tenant %q", i, ev.Tenant)
		}
		obs, err := d.call(ev)
		if err != nil {
			return false, fmt.Errorf("conformance: event %d (%s %s): %w", i, ev.Kind, ev.ID, err)
		}
		if ev.Kind.Mutates() && !handlerRejects(ev) {
			s.applied[ev.Tenant]++
		}
		if s.cfg.Fault != nil {
			s.cfg.Fault(ev, obs)
		}

		var exp expectation
		switch ev.Kind {
		case KindSubmit:
			exp = m.applySubmit(ev)
		case KindRevoke:
			exp = m.applyRevoke(ev)
		case KindDrift:
			exp = m.applyDrift(ev)
		case KindPlan:
			exp = m.expectPlan()
		case KindAlternative:
			exp, err = m.expectAlternative(ev)
			if err != nil {
				return false, fmt.Errorf("conformance: event %d: oracle: %w", i, err)
			}
		default:
			return false, fmt.Errorf("conformance: event %d has unknown kind %q", i, ev.Kind)
		}
		if s.compare(i, ev, m, exp, obs) {
			return true, nil
		}
	}
	return false, nil
}

// handlerRejects reports whether the HTTP handler rejects the mutation
// before it reaches the tenant event loop, so no OnApply callback fires
// for it. Every other mutation — including loop-level errors like empty
// or duplicate IDs — does reach the loop and is counted.
func handlerRejects(ev Event) bool {
	return ev.Kind == KindSubmit && (ev.ID == "." || ev.ID == "..")
}

// driver issues trace events against a live server through the typed API
// client, so the conformance harness exercises the same wire path real
// callers use. With viaBatch set, mutations travel as one-op batches
// through the ingest endpoint and the per-op result is mapped back into
// the single-op Observed shape.
type driver struct {
	c        *client.Client
	viaBatch bool
}

func newDriver(hs *httptest.Server, viaBatch bool) *driver {
	return &driver{
		c:        client.New(hs.URL, client.WithHTTPClient(hs.Client())),
		viaBatch: viaBatch,
	}
}

// call issues one event's HTTP request and decodes the response.
func (d *driver) call(ev Event) (*Observed, error) {
	ctx := context.Background()
	if d.viaBatch && ev.Kind.Mutates() {
		return d.callBatched(ctx, ev)
	}
	switch ev.Kind {
	case KindSubmit:
		resp, err := d.c.Submit(ctx, ev.Tenant, server.SubmitRequest{
			ID: ev.ID, Quality: ev.Quality, Cost: ev.Cost, Latency: ev.Latency, K: ev.K,
		})
		if err != nil {
			return observeError(err)
		}
		return &Observed{Status: http.StatusOK, Submit: &resp}, nil
	case KindRevoke:
		resp, err := d.c.Revoke(ctx, ev.Tenant, ev.ID)
		if err != nil {
			return observeError(err)
		}
		return &Observed{Status: http.StatusOK, Epoch: &resp}, nil
	case KindDrift:
		resp, err := d.c.SetAvailability(ctx, ev.Tenant, ev.Availability)
		if err != nil {
			return observeError(err)
		}
		return &Observed{Status: http.StatusOK, Epoch: &resp}, nil
	case KindPlan:
		resp, err := d.c.Plan(ctx, ev.Tenant)
		if err != nil {
			return observeError(err)
		}
		return &Observed{Status: http.StatusOK, Plan: &resp}, nil
	case KindAlternative:
		resp, err := d.c.Alternative(ctx, ev.Tenant, ev.ID)
		if err != nil {
			return observeError(err)
		}
		return &Observed{Status: http.StatusOK, Alternative: &resp}, nil
	default:
		return nil, fmt.Errorf("unknown kind %q", ev.Kind)
	}
}

// callBatched sends one mutation as a single-op batch and reshapes its
// per-op result into the Observed the single-op endpoint would yield.
func (d *driver) callBatched(ctx context.Context, ev Event) (*Observed, error) {
	var op server.BatchOp
	switch ev.Kind {
	case KindSubmit:
		op = server.BatchOp{Op: server.OpSubmit, ID: ev.ID,
			Quality: ev.Quality, Cost: ev.Cost, Latency: ev.Latency, K: ev.K}
	case KindRevoke:
		op = server.BatchOp{Op: server.OpRevoke, ID: ev.ID}
	case KindDrift:
		op = server.BatchOp{Op: server.OpAvailability, Workforce: ev.Availability}
	default:
		return nil, fmt.Errorf("kind %q is not a mutation", ev.Kind)
	}
	resp, err := d.c.SendOps(ctx, ev.Tenant, []server.BatchOp{op})
	if err != nil {
		return observeError(err)
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("batch of 1 op answered %d results", len(resp.Results))
	}
	r := resp.Results[0]
	obs := &Observed{Status: r.Status}
	if r.Status != http.StatusOK {
		return obs, nil
	}
	switch ev.Kind {
	case KindSubmit:
		obs.Submit = &server.SubmitResponse{
			ID: ev.ID, Served: r.Served != nil && *r.Served, Epoch: r.Epoch,
		}
	case KindRevoke, KindDrift:
		obs.Epoch = &server.EpochResponse{Epoch: r.Epoch}
	}
	return obs, nil
}

// observeError converts a client.APIError into the observed status the
// oracle compares; transport-level failures stay hard errors.
func observeError(err error) (*Observed, error) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return &Observed{Status: apiErr.Status}, nil
	}
	return nil, err
}

// compare checks one observed response against the oracle expectation,
// recording divergences. It returns true when the divergence budget is
// exhausted.
func (s *session) compare(i int, ev Event, m *tenantModel, exp expectation, obs *Observed) bool {
	s.res.Checks++
	if obs.Status != exp.status {
		return s.diverge(i, ev, "status", strconv.Itoa(exp.status), strconv.Itoa(obs.Status))
	}
	if exp.status != http.StatusOK {
		return false // expected-error path confirmed; no body to compare
	}

	switch ev.Kind {
	case KindSubmit:
		s.res.Checks++
		if obs.Submit == nil {
			return s.diverge(i, ev, "submit body", "present", "missing")
		}
		if obs.Submit.Served != exp.served {
			if s.diverge(i, ev, "served", strconv.FormatBool(exp.served), strconv.FormatBool(obs.Submit.Served)) {
				return true
			}
		}
		if obs.Submit.Epoch != exp.epoch {
			return s.diverge(i, ev, "epoch", strconv.FormatUint(exp.epoch, 10), strconv.FormatUint(obs.Submit.Epoch, 10))
		}
	case KindRevoke, KindDrift:
		s.res.Checks++
		if obs.Epoch == nil {
			return s.diverge(i, ev, "epoch body", "present", "missing")
		}
		if obs.Epoch.Epoch != exp.epoch {
			return s.diverge(i, ev, "epoch", strconv.FormatUint(exp.epoch, 10), strconv.FormatUint(obs.Epoch.Epoch, 10))
		}
	case KindPlan:
		if obs.Plan == nil {
			return s.diverge(i, ev, "plan body", "present", "missing")
		}
		if stop := s.comparePlan(i, ev, m, exp.plan, obs.Plan); stop {
			return true
		}
	case KindAlternative:
		if obs.Alternative == nil {
			return s.diverge(i, ev, "alternative body", "present", "missing")
		}
		if stop := s.compareAlternative(i, ev, m, exp.alt, obs.Alternative); stop {
			return true
		}
	}
	return false
}

// comparePlan is the naive-replay layer: full structural equality of the
// plan snapshot, then the branch-and-bound optimality layer on the
// achieved objective.
func (s *session) comparePlan(i int, ev Event, m *tenantModel, want *planExpect, got *server.PlanResponse) bool {
	s.res.Checks++
	if got.Epoch != want.epoch {
		if s.diverge(i, ev, "plan epoch", strconv.FormatUint(want.epoch, 10), strconv.FormatUint(got.Epoch, 10)) {
			return true
		}
	}
	if !closeEnough(got.Availability, want.availability) {
		if s.diverge(i, ev, "availability", formatFloat(want.availability), formatFloat(got.Availability)) {
			return true
		}
	}
	if !closeEnough(got.Objective, want.objective) {
		if s.diverge(i, ev, "objective", formatFloat(want.objective), formatFloat(got.Objective)) {
			return true
		}
	}
	if !closeEnough(got.Workforce, want.workforce) {
		if s.diverge(i, ev, "plan workforce", formatFloat(want.workforce), formatFloat(got.Workforce)) {
			return true
		}
	}
	if !slices.Equal(got.Serving, want.serving) {
		if s.diverge(i, ev, "serving set", fmt.Sprint(want.serving), fmt.Sprint(got.Serving)) {
			return true
		}
	}
	if !slices.Equal(got.Displaced, want.displaced) {
		if s.diverge(i, ev, "displaced set", fmt.Sprint(want.displaced), fmt.Sprint(got.Displaced)) {
			return true
		}
	}
	if len(got.Requests) != len(want.requests) {
		return s.diverge(i, ev, "open request count", strconv.Itoa(len(want.requests)), strconv.Itoa(len(got.Requests)))
	}
	for j, wr := range want.requests {
		gr := got.Requests[j]
		field := "request " + wr.id + " "
		switch {
		case gr.ID != wr.id:
			return s.diverge(i, ev, field+"id", wr.id, gr.ID)
		case gr.Serving != wr.serving:
			return s.diverge(i, ev, field+"serving", strconv.FormatBool(wr.serving), strconv.FormatBool(gr.Serving))
		case gr.Feasible != wr.feasible:
			return s.diverge(i, ev, field+"feasible", strconv.FormatBool(wr.feasible), strconv.FormatBool(gr.Feasible))
		case gr.K != wr.request.K:
			return s.diverge(i, ev, field+"k", strconv.Itoa(wr.request.K), strconv.Itoa(gr.K))
		}
		wantWF := wr.feasible && !math.IsInf(wr.workforce, 1)
		if wantWF != (gr.Workforce != nil) {
			return s.diverge(i, ev, field+"workforce presence", strconv.FormatBool(wantWF), strconv.FormatBool(gr.Workforce != nil))
		}
		if wantWF && !closeEnough(*gr.Workforce, wr.workforce) {
			return s.diverge(i, ev, field+"workforce", formatFloat(wr.workforce), formatFloat(*gr.Workforce))
		}
		if wr.serving && !slices.Equal(gr.Strategies, wr.strategies) {
			return s.diverge(i, ev, field+"strategies", fmt.Sprint(wr.strategies), fmt.Sprint(gr.Strategies))
		}
	}

	// Branch-and-bound layer: the live plan's objective obeys the paper's
	// guarantee relative to the exact composite optimum.
	if s.cfg.BranchBoundLimit >= 0 && len(m.lastItems) <= s.cfg.BranchBoundLimit {
		s.res.Checks++
		if ok, want, got := m.optimality(got.Objective); !ok {
			return s.diverge(i, ev, "objective vs branch-and-bound", want, got)
		}
	}
	return false
}

// compareAlternative is the brute-force layer: the served distance matches
// ADPaRB's, and the served alternative is independently verified with the
// public satisfaction predicate.
func (s *session) compareAlternative(i int, ev Event, m *tenantModel, want *altExpect, got *server.AlternativeResponse) bool {
	s.res.Checks++
	if !closeEnough(got.Distance, want.distance) {
		if s.diverge(i, ev, "alternative distance vs brute force", formatFloat(want.distance), formatFloat(got.Distance)) {
			return true
		}
	}
	alt := strategy.Params{Quality: got.Quality, Cost: got.Cost, Latency: got.Latency}
	covered := m.coverCount(alt)
	s.res.Checks++
	if covered != got.Covered {
		if s.diverge(i, ev, "covered count (recount)", strconv.Itoa(covered), strconv.Itoa(got.Covered)) {
			return true
		}
	}
	if covered < want.k {
		if s.diverge(i, ev, "alternative covers k", ">= "+strconv.Itoa(want.k), strconv.Itoa(covered)) {
			return true
		}
	}
	if len(got.Strategies) != want.k {
		if s.diverge(i, ev, "recommended strategy count", strconv.Itoa(want.k), strconv.Itoa(len(got.Strategies))) {
			return true
		}
	}
	for _, id := range got.Strategies {
		if !m.satisfies(id, alt) {
			if s.diverge(i, ev, "recommended strategy satisfies alternative",
				"strategy "+strconv.Itoa(id)+" satisfies", "does not satisfy") {
				return true
			}
		}
	}
	return false
}

// checkListing cross-checks GET /v1/tenants against every model, unless
// the divergence budget is already spent.
func (s *session) checkListing(d *driver) {
	if len(s.res.Divergences) >= s.cfg.MaxDivergences {
		return
	}
	end := len(s.tr.Events)
	infos, err := d.c.Tenants(context.Background())
	if err != nil {
		s.diverge(end, Event{Kind: "listing"}, "tenant listing", "reachable", err.Error())
		return
	}
	s.res.Checks++
	if len(infos) != len(s.models) {
		s.diverge(end, Event{Kind: "listing"}, "tenant count",
			strconv.Itoa(len(s.models)), strconv.Itoa(len(infos)))
		return
	}
	for _, info := range infos {
		m, ok := s.models[info.Name]
		if !ok {
			s.diverge(end, Event{Kind: "listing"}, "tenant name", "known", info.Name)
			continue
		}
		ev := Event{Tenant: info.Name, Kind: "listing"}
		s.res.Checks++
		if info.Open != len(m.order) {
			s.diverge(end, ev, "open count", strconv.Itoa(len(m.order)), strconv.Itoa(info.Open))
		}
		if info.Epoch != m.epoch {
			s.diverge(end, ev, "epoch", strconv.FormatUint(m.epoch, 10), strconv.FormatUint(info.Epoch, 10))
		}
		if !closeEnough(info.Availability, m.w) {
			s.diverge(end, ev, "availability", formatFloat(m.w), formatFloat(info.Availability))
		}
	}
}

// closeEnough compares observables that round-trip through JSON float64:
// exact equality normally holds; the relative tolerance only absorbs
// mathematically-tied optima reached through different arithmetic.
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
