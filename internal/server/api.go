package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"stratrec/internal/adpar"
	"stratrec/internal/batch"
	"stratrec/internal/linmodel"
	"stratrec/internal/store"
	"stratrec/internal/strategy"
	"stratrec/internal/stream"
	"stratrec/internal/workforce"
)

// DeadlineHeader lets a client attach a per-request deadline to a
// mutation: admission control sheds up front when the projected queue
// wait exceeds it, and the event loop sheds immediately before apply when
// it expired while queued. The value is milliseconds, e.g.
// "X-Request-Deadline-Ms: 50". Without the header the server default
// (Config.MutationDeadline) applies, if any.
const DeadlineHeader = "X-Request-Deadline-Ms"

// routes wires the HTTP surface:
//
//	GET    /v1/healthz                                    liveness
//	GET    /v1/metrics                                    expvar metrics (JSON)
//	GET    /v1/tenants                                    hosted tenants
//	POST   /v1/tenants/{tenant}/requests                  submit a request
//	DELETE /v1/tenants/{tenant}/requests/{id}             revoke a request
//	POST   /v1/tenants/{tenant}/ops                       batched ingest (ordered submit/revoke/availability ops)
//	GET    /v1/tenants/{tenant}/plan                      current plan snapshot
//	GET    /v1/tenants/{tenant}/requests/{id}/alternative ADPaR alternative
//	PUT    /v1/tenants/{tenant}/availability              move expected workforce
//	POST   /v1/admin/checkpoint                           checkpoint + truncate every tenant WAL
//	POST   /v1/admin/tenants/{tenant}                     create a tenant at runtime
//	DELETE /v1/admin/tenants/{tenant}                     drain + remove a tenant
//	GET    /v1/admin/tenants/{tenant}                     tenant admin status
//
// /metrics answers expvar JSON by default and Prometheus text format
// with ?format=prometheus.
//
// /healthz, /metrics and /admin/checkpoint also answer at their
// original unversioned paths, kept for deployed probes and scripts
// (deprecated — new integrations should use the /v1 forms).
//
// The {tenant} path value resolves against the live registry per
// request, so tenants created or drained at runtime come and go without
// any mux change.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.metricsHandler)
	mux.HandleFunc("GET /v1/metrics", s.metricsHandler)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("POST /v1/tenants/{tenant}/requests", s.tenantHandler(s.handleSubmit))
	mux.HandleFunc("DELETE /v1/tenants/{tenant}/requests/{id}", s.tenantHandler(s.handleRevoke))
	mux.HandleFunc("POST /v1/tenants/{tenant}/ops", s.tenantHandler(s.handleBatch))
	mux.HandleFunc("GET /v1/tenants/{tenant}/plan", s.tenantHandler(handlePlan))
	mux.HandleFunc("GET /v1/tenants/{tenant}/requests/{id}/alternative", s.tenantHandler(handleAlternative))
	mux.HandleFunc("PUT /v1/tenants/{tenant}/availability", s.tenantHandler(s.handleAvailability))
	mux.HandleFunc("POST /admin/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("POST /v1/admin/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("POST /v1/admin/tenants/{tenant}", s.handleTenantCreate)
	mux.HandleFunc("DELETE /v1/admin/tenants/{tenant}", s.handleTenantDrain)
	mux.HandleFunc("GET /v1/admin/tenants/{tenant}", s.handleTenantStatus)
	return mux
}

// --- JSON shapes ---

// SubmitRequest is the submit body. K defaults to 1.
type SubmitRequest struct {
	ID      string  `json:"id"`
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
	Latency float64 `json:"latency"`
	K       int     `json:"k"`
}

// SubmitResponse reports the admission outcome. Served=false means the
// request is open but displaced; its alternative endpoint has an ADPaR
// recommendation.
type SubmitResponse struct {
	ID     string `json:"id"`
	Served bool   `json:"served"`
	Epoch  uint64 `json:"epoch"`
}

// EpochResponse acknowledges a mutation with the resulting plan epoch.
type EpochResponse struct {
	Epoch uint64 `json:"epoch"`
}

// AvailabilityRequest is the availability-update body.
type AvailabilityRequest struct {
	Workforce float64 `json:"workforce"`
}

// PlanRequest is one open request inside a PlanResponse.
type PlanRequest struct {
	ID      string  `json:"id"`
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
	Latency float64 `json:"latency"`
	K       int     `json:"k"`
	Serving bool    `json:"serving"`
	// Feasible is false when fewer than K catalog strategies can ever
	// satisfy the request, at any availability.
	Feasible bool `json:"feasible"`
	// Workforce is the request's aggregated requirement; omitted when
	// infeasible.
	Workforce *float64 `json:"workforce,omitempty"`
	// Strategies holds the K recommended strategy IDs when served.
	Strategies []int `json:"strategies,omitempty"`
}

// PlanResponse is the tenant's current deployment plan.
type PlanResponse struct {
	Tenant       string        `json:"tenant"`
	Epoch        uint64        `json:"epoch"`
	Availability float64       `json:"availability"`
	Objective    float64       `json:"objective"`
	Workforce    float64       `json:"workforce"`
	Serving      []string      `json:"serving"`
	Displaced    []string      `json:"displaced"`
	Requests     []PlanRequest `json:"requests"`
}

// PlanSummaryResponse is the ?view=summary projection of the plan: the
// scalar observables with per-request detail reduced to counts. The full
// PlanResponse grows with the open pool (every request serialized on
// every read); the summary stays O(1), which is what epoch/objective
// pollers and load probes should be paying.
type PlanSummaryResponse struct {
	Tenant       string  `json:"tenant"`
	Epoch        uint64  `json:"epoch"`
	Availability float64 `json:"availability"`
	Objective    float64 `json:"objective"`
	Workforce    float64 `json:"workforce"`
	Open         int     `json:"open"`
	Serving      int     `json:"serving"`
	Displaced    int     `json:"displaced"`
}

// AlternativeResponse is an ADPaR recommendation for a displaced request.
type AlternativeResponse struct {
	ID         string  `json:"id"`
	Quality    float64 `json:"quality"`
	Cost       float64 `json:"cost"`
	Latency    float64 `json:"latency"`
	Distance   float64 `json:"distance"`
	Strategies []int   `json:"strategies"`
	Covered    int     `json:"covered"`
}

// TenantInfo is one entry of the tenant listing.
type TenantInfo struct {
	Name         string  `json:"name"`
	Strategies   int     `json:"strategies"`
	Open         int     `json:"open"`
	Serving      int     `json:"serving"`
	Epoch        uint64  `json:"epoch"`
	Availability float64 `json:"availability"`
}

// CheckpointResponse reports the per-tenant outcomes of POST
// /admin/checkpoint.
type CheckpointResponse struct {
	Tenants map[string]CheckpointInfo `json:"tenants"`
}

// Error codes carried by ErrorDetail.Code: a stable, machine-matchable
// vocabulary, independent of error message wording. Clients branch on
// the code (or just the HTTP status); the message is for humans.
const (
	CodeBadRequest      = "bad_request"      // malformed body, header or batch
	CodeInvalidArgument = "invalid_argument" // well-formed but semantically invalid mutation
	CodeUnknownTenant   = "unknown_tenant"
	CodeUnknownRequest  = "unknown_request"
	CodeDuplicateID     = "duplicate_id"
	CodeAlreadyServed   = "already_served"
	CodeNoDurability    = "no_durability"
	CodeOverloaded      = "overloaded"       // shed; retry after RetryAfterMs
	CodeTenantClosed    = "tenant_closed"    // shutting down; retry against the replacement
	CodeWALBroken       = "wal_broken"       // read-only until operator restart
	CodeDuplicateTenant = "duplicate_tenant" // runtime create against an existing name
	CodeInternal        = "internal"
)

// ErrorDetail is the uniform error shape every handler returns: a stable
// code, a human-readable message, for retryable rejections the same
// backoff hint the Retry-After header carries (in milliseconds, keeping
// the server's precision the header's whole seconds destroy), and the
// request's trace ID — the same one the X-Trace-Id response header
// echoes — so a client holding a shed 429 can hand an operator a string
// that greps straight to the server's structured log line for it.
type ErrorDetail struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
	TraceID      string `json:"trace_id,omitempty"`
}

// ErrorResponse carries every non-2xx body.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// --- batched ingest ---

// Batch op kinds for BatchOp.Op.
const (
	OpSubmit       = "submit"
	OpRevoke       = "revoke"
	OpAvailability = "availability"
)

// MaxBatchOps caps how many ops one POST /v1/tenants/{tenant}/ops body
// may carry. Large enough to amortize a round trip many times over,
// small enough that one batch cannot monopolize a tenant loop.
const MaxBatchOps = 1024

// MaxBatchBodyBytes caps how many bytes of a batch body the server will
// buffer before rejecting it: decoding happens before the op-count cap
// can be enforced, so without a byte limit an arbitrarily large ops
// array (or huge strings inside one) would be read fully into memory
// just to be refused. Sized for MaxBatchOps worst-case ops with ample
// slack. The single-op submit and availability bodies share the cap.
const MaxBatchBodyBytes = 1 << 20

// BatchOp is one mutation inside a batched ingest request. Op selects
// the mutation; the other fields mirror the single-op endpoints (submit
// uses ID/Quality/Cost/Latency/K, revoke uses ID, availability uses
// Workforce).
type BatchOp struct {
	Op      string  `json:"op"`
	ID      string  `json:"id,omitempty"`
	Quality float64 `json:"quality,omitempty"`
	Cost    float64 `json:"cost,omitempty"`
	Latency float64 `json:"latency,omitempty"`
	K       int     `json:"k,omitempty"`
	// Workforce is the availability op's new expected workforce.
	Workforce float64 `json:"workforce,omitempty"`
}

// BatchRequest is the POST /v1/tenants/{tenant}/ops body: an ordered
// list of mutations, applied in exactly this order through the tenant's
// event loop (they may coalesce into the same replan cycle, which is the
// point).
type BatchRequest struct {
	Ops []BatchOp `json:"ops"`
}

// BatchOpResult is one op's outcome. Status is the HTTP status the op
// would have received at its single-op endpoint; Error carries the same
// envelope a non-2xx single-op response would. Served is set for
// successful submits only.
type BatchOpResult struct {
	Status int          `json:"status"`
	Epoch  uint64       `json:"epoch,omitempty"`
	Served *bool        `json:"served,omitempty"`
	Error  *ErrorDetail `json:"error,omitempty"`
}

// BatchResponse answers a processed batch: one result per op, in op
// order. The HTTP status is 200 whenever the batch itself was processed,
// even if every op inside failed — per-op outcomes live in Results.
type BatchResponse struct {
	Results []BatchOpResult `json:"results"`
}

// --- handlers ---

// handleHealthz reports per-tenant health plus the aggregate. The
// endpoint stays 200 while any tenant can still make progress — a single
// WAL-broken tenant makes the aggregate "degraded", not the whole server
// unhealthy — and goes 503 ("unavailable") only when every tenant is
// read-only, so orchestrators don't restart a fleet member that is still
// serving N-1 tenants.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	names := s.TenantNames()
	resp := HealthResponse{Tenants: make(map[string]TenantHealth, len(names))}
	allOK, allDown := true, true
	for _, name := range names {
		t, err := s.Tenant(name)
		if err != nil {
			continue // drained between the listing and the lookup
		}
		h := t.health()
		resp.Tenants[name] = h
		if h.Status != HealthOK {
			allOK = false
		}
		if h.Status != HealthReadOnly {
			allDown = false
		}
	}
	code := http.StatusOK
	switch {
	case allDown:
		resp.Status = "unavailable"
		code = http.StatusServiceUnavailable
	case allOK:
		resp.Status = HealthOK
	default:
		resp.Status = HealthDegraded
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	names := s.TenantNames()
	out := make([]TenantInfo, 0, len(names))
	for _, name := range names {
		t, err := s.Tenant(name)
		if err != nil {
			continue // drained between the listing and the lookup
		}
		v := t.view.Load()
		out = append(out, TenantInfo{
			Name:         name,
			Strategies:   t.ix.Len(),
			Open:         v.Open,
			Serving:      v.Serving,
			Epoch:        v.Epoch,
			Availability: v.Availability,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// tenantHandler resolves the {tenant} path segment before the wrapped
// handler runs.
func (s *Server) tenantHandler(h func(*Tenant, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := s.Tenant(r.PathValue("tenant"))
		if err != nil {
			writeError(w, fmt.Errorf("%w: %s", ErrUnknownTenant, r.PathValue("tenant")))
			return
		}
		h(t, w, r)
	}
}

// mutationContext derives the admission-control context for one mutation
// from the DeadlineHeader, falling back to the server-wide default. The
// context deliberately does NOT inherit r.Context(): a client hanging up
// mid-flight must not turn an already-enqueued (and possibly applied +
// logged) mutation into a shed — the handler always waits for the loop's
// definitive answer, and only the loop sheds, only before apply.
func (s *Server) mutationContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	base := context.Background()
	// The trace ID is the one value the fresh context does inherit from
	// the request: correlation must survive the deliberate detach from
	// r.Context().
	if id := traceFrom(r.Context()); id != "" {
		base = withTrace(base, id)
	}
	d := s.mutDeadline
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, badRequest("invalid %s header %q (want positive integer milliseconds)", DeadlineHeader, h)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d <= 0 {
		return base, func() {}, nil
	}
	// The deadline is anchored on the injected clock, not the runtime's:
	// admission projection, the loop's pre-apply expiry check (ctxExpired)
	// and this stamp must all read the same timeline for shed decisions —
	// and the retry_after_ms they advertise — to be reproducible under the
	// conformance harness's fixed or stepped clock.
	ctx, cancel := context.WithDeadline(base, s.now().Add(d))
	return ctx, cancel, nil
}

func (s *Server) handleSubmit(t *Tenant, w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBatchBodyBytes)
	var body SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, badRequest("invalid JSON: %v", err))
		return
	}
	// IDs "." and ".." would be admitted but could never be addressed:
	// their revoke/alternative URLs are dot segments the HTTP layer
	// cleans away (301) before routing. Found by FuzzSubmitRequest.
	if body.ID == "." || body.ID == ".." {
		writeError(w, badRequest("request ID %q cannot be addressed as a URL path segment", body.ID))
		return
	}
	if body.K == 0 {
		body.K = 1
	}
	ctx, cancel, err := s.mutationContext(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	res, err := t.Submit(ctx, strategy.Request{
		ID:     body.ID,
		Params: strategy.Params{Quality: body.Quality, Cost: body.Cost, Latency: body.Latency},
		K:      body.K,
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{ID: body.ID, Served: res.Served, Epoch: res.Epoch})
}

func (s *Server) handleRevoke(t *Tenant, w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := s.mutationContext(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	epoch, err := t.Revoke(ctx, r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, EpochResponse{Epoch: epoch})
}

func (s *Server) handleAvailability(t *Tenant, w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBatchBodyBytes)
	var body AvailabilityRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, badRequest("invalid JSON: %v", err))
		return
	}
	ctx, cancel, err := s.mutationContext(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()
	epoch, err := t.SetAvailability(ctx, body.Workforce)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, EpochResponse{Epoch: epoch})
}

// handleBatch is the batched ingest endpoint: an ordered list of
// submit/revoke/availability ops, applied through the tenant's event
// loop in body order so they can coalesce into shared replan cycles (and
// shared WAL commit rounds). One deadline parse covers the whole body —
// the deadline is a property of the request, not of each op — and a
// batch the deadline check already dooms is rejected as a unit with one
// 429 before anything is enqueued. Malformed ops (unknown op kind,
// unaddressable ID) fail in place with a 400-shaped result without
// poisoning their neighbours. A processed batch answers 200 with one
// result per op, each carrying the status and, on failure, the same
// error envelope the op's single-op endpoint would have returned.
func (s *Server) handleBatch(t *Tenant, w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBatchBodyBytes)
	var body BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, badRequest("batch body exceeds %d bytes", int64(MaxBatchBodyBytes)))
			return
		}
		writeError(w, badRequest("invalid JSON: %v", err))
		return
	}
	if len(body.Ops) == 0 {
		writeError(w, badRequest("empty batch (want 1..%d ops)", MaxBatchOps))
		return
	}
	if len(body.Ops) > MaxBatchOps {
		writeError(w, badRequest("batch of %d ops exceeds the cap of %d", len(body.Ops), MaxBatchOps))
		return
	}
	ctx, cancel, err := s.mutationContext(r)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()

	results := make([]BatchOpResult, len(body.Ops))
	ops := make([]op, 0, len(body.Ops))
	idx := make([]int, 0, len(body.Ops)) // ops[j] answers results[idx[j]]
	for i, b := range body.Ops {
		switch b.Op {
		case OpSubmit:
			if b.ID == "." || b.ID == ".." {
				results[i] = batchErrResult(badRequest("request ID %q cannot be addressed as a URL path segment", b.ID))
				continue
			}
			k := b.K
			if k == 0 {
				k = 1
			}
			ops = append(ops, op{kind: opSubmit, req: strategy.Request{
				ID:     b.ID,
				Params: strategy.Params{Quality: b.Quality, Cost: b.Cost, Latency: b.Latency},
				K:      k,
			}})
		case OpRevoke:
			ops = append(ops, op{kind: opRevoke, id: b.ID})
		case OpAvailability:
			ops = append(ops, op{kind: opAvailability, w: b.Workforce})
		default:
			results[i] = batchErrResult(badRequest("unknown op %q (want %q, %q or %q)", b.Op, OpSubmit, OpRevoke, OpAvailability))
			continue
		}
		idx = append(idx, i)
	}
	opResults, err := t.enqueue(ctx, ops)
	if err != nil {
		// Whole-batch rejection: nothing was enqueued, nothing applied.
		writeError(w, err)
		return
	}
	t.met.ingestBatches.Add(1)
	t.met.ingestBatchOps.Add(int64(len(ops)))
	for j, res := range opResults {
		i := idx[j]
		if res.err != nil {
			results[i] = batchErrResult(res.err)
			continue
		}
		br := BatchOpResult{Status: http.StatusOK, Epoch: res.epoch}
		if ops[j].kind == opSubmit {
			served := res.served
			br.Served = &served
		}
		results[i] = br
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// batchErrResult shapes one op's failure exactly like the single-op
// endpoint's error response.
func batchErrResult(err error) BatchOpResult {
	code, d := errorDetail(err)
	return BatchOpResult{Status: code, Error: &d}
}

func handlePlan(t *Tenant, w http.ResponseWriter, r *http.Request) {
	v := t.planView()
	switch view := r.URL.Query().Get("view"); view {
	case "", "full":
	case "summary":
		writeJSON(w, http.StatusOK, PlanSummaryResponse{
			Tenant:       t.name,
			Epoch:        v.Epoch,
			Availability: v.Availability,
			Objective:    v.Objective,
			Workforce:    v.Workforce,
			Open:         v.Open,
			Serving:      v.Serving,
			Displaced:    v.Open - v.Serving,
		})
		return
	default:
		writeError(w, badRequest("unknown plan view %q (want \"full\" or \"summary\")", view))
		return
	}
	snap := v.Snapshot()
	resp := PlanResponse{
		Tenant:       t.name,
		Epoch:        snap.Epoch,
		Availability: snap.Availability,
		Objective:    snap.Plan.Objective,
		Workforce:    snap.Plan.Workforce,
		Serving:      snap.Plan.Serving,
		Displaced:    snap.Plan.Displaced,
		Requests:     make([]PlanRequest, 0, len(snap.Requests)),
	}
	if resp.Serving == nil {
		resp.Serving = []string{}
	}
	if resp.Displaced == nil {
		resp.Displaced = []string{}
	}
	for _, rs := range snap.Requests {
		pr := PlanRequest{
			ID:       rs.ID,
			Quality:  rs.Request.Quality,
			Cost:     rs.Request.Cost,
			Latency:  rs.Request.Latency,
			K:        rs.Request.K,
			Serving:  rs.Serving,
			Feasible: rs.Feasible,
		}
		if rs.Feasible && !math.IsInf(rs.Workforce, 1) {
			wf := rs.Workforce
			pr.Workforce = &wf
		}
		if rs.Serving {
			pr.Strategies = rs.Strategies
		}
		resp.Requests = append(resp.Requests, pr)
	}
	writeJSON(w, http.StatusOK, resp)
}

func handleAlternative(t *Tenant, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Unlike mutations, the query inherits the request context: aborting
	// a read that never ran (client gone while queued for a pool slot)
	// has no accounting consequences.
	sol, rs, err := t.Alternative(r.Context(), id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, AlternativeResponse{
		ID:         id,
		Quality:    sol.Alternative.Quality,
		Cost:       sol.Alternative.Cost,
		Latency:    sol.Alternative.Latency,
		Distance:   sol.Distance,
		Strategies: sol.Strategies(rs.Request.K),
		Covered:    len(sol.Covered),
	})
}

// handleCheckpoint checkpoints every tenant (durable snapshot + WAL
// truncation). All-or-nothing per tenant: the first failure aborts with
// its error, already-checkpointed tenants keep their new checkpoints
// (checkpointing is idempotent, so a retry converges).
func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if s.dataDir == "" {
		writeError(w, ErrNoDurability)
		return
	}
	names := s.TenantNames()
	resp := CheckpointResponse{Tenants: make(map[string]CheckpointInfo, len(names))}
	for _, name := range names {
		t, err := s.Tenant(name)
		if err != nil {
			continue // drained between the listing and the lookup
		}
		info, err := t.Checkpoint()
		if err != nil {
			writeError(w, fmt.Errorf("tenant %s: %w", name, err))
			return
		}
		resp.Tenants[name] = info
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- runtime tenant admin ---

// CreateTenantRequest is the POST /v1/admin/tenants/{tenant} body: a
// strategy catalog (the same JSON shape `stratrec serve -tenants` files
// hold per tenant) plus planning semantics. Entries without fitted
// models get the Section 3.1 anchored defaults — identical to what the
// CLI's boot-time materialization applies, so a tenant created over the
// wire plans exactly like one loaded from disk.
type CreateTenantRequest struct {
	// Objective is "throughput" (default) or "payoff".
	Objective string `json:"objective,omitempty"`
	// Mode is the workforce aggregation: "max" (default) or "sum".
	Mode string `json:"mode,omitempty"`
	// Coalesce and OpBuffer tune the tenant's event loop (0 = defaults).
	Coalesce int `json:"coalesce,omitempty"`
	OpBuffer int `json:"op_buffer,omitempty"`
	// Catalog is the strategy catalog, workforce included.
	Catalog store.Catalog `json:"catalog"`
}

// TenantStatusResponse is the GET /v1/admin/tenants/{tenant} body: the
// operator's view of one tenant — plan scalars plus the health row
// /healthz would report.
type TenantStatusResponse struct {
	Name         string       `json:"name"`
	Strategies   int          `json:"strategies"`
	Open         int          `json:"open"`
	Serving      int          `json:"serving"`
	Epoch        uint64       `json:"epoch"`
	Availability float64      `json:"availability"`
	Health       TenantHealth `json:"health"`
	Draining     bool         `json:"draining"`
}

// DrainTenantResponse is the DELETE /v1/admin/tenants/{tenant} body.
type DrainTenantResponse struct {
	Tenant string `json:"tenant"`
	// Checkpoint is the final checkpoint cut during the drain (zero when
	// the server runs without durability).
	Checkpoint CheckpointInfo `json:"checkpoint"`
}

// tenantConfigFromCreate materializes a CreateTenantRequest into a
// TenantConfig.
func tenantConfigFromCreate(body CreateTenantRequest) (TenantConfig, error) {
	var obj batch.Objective
	switch body.Objective {
	case "", "throughput":
		obj = batch.Throughput
	case "payoff":
		obj = batch.Payoff
	default:
		return TenantConfig{}, badRequest("unknown objective %q (want throughput or payoff)", body.Objective)
	}
	var agg workforce.Mode
	switch body.Mode {
	case "", "max":
		agg = workforce.MaxCase
	case "sum":
		agg = workforce.SumCase
	default:
		return TenantConfig{}, badRequest("unknown mode %q (want max or sum)", body.Mode)
	}
	set, models, err := body.Catalog.Materialize(func(e store.Entry) linmodel.ParamModels {
		return store.AnchoredModels(e.Params, body.Catalog.Workforce)
	})
	if err != nil {
		return TenantConfig{}, badRequest("invalid catalog: %v", err)
	}
	return TenantConfig{
		Set: set, Models: models,
		Mode: agg, Objective: obj,
		InitialW: body.Catalog.Workforce,
		Coalesce: body.Coalesce,
		OpBuffer: body.OpBuffer,
	}, nil
}

// handleTenantCreate adds a tenant at runtime. 201 on success; 409
// (duplicate_tenant) when the name is taken; 400 for an invalid name or
// catalog. When the server runs with durability, the new tenant recovers
// whatever WAL state a previous tenant of the same name left under the
// data directory — created-drained-recreated round-trips keep their
// durable state.
func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	var body CreateTenantRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, badRequest("invalid JSON: %v", err))
		return
	}
	cfg, err := tenantConfigFromCreate(body)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := s.CreateTenant(name, cfg); err != nil {
		var se statusError
		if !errors.Is(err, ErrDuplicateTenant) && !errors.As(err, &se) {
			err = badRequest("creating tenant %s: %v", name, err)
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.tenantStatus(name))
}

// handleTenantDrain drains and removes a tenant: new writes 503 during
// the drain, a final checkpoint is cut, the loop stops, and the name
// 404s afterwards.
func (s *Server) handleTenantDrain(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	info, err := s.DrainTenant(name)
	if err != nil {
		if errors.Is(err, ErrUnknownTenant) {
			err = fmt.Errorf("%w: %s", ErrUnknownTenant, name)
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DrainTenantResponse{Tenant: name, Checkpoint: info})
}

// handleTenantStatus reports one tenant's admin view.
func (s *Server) handleTenantStatus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if _, err := s.Tenant(name); err != nil {
		writeError(w, fmt.Errorf("%w: %s", ErrUnknownTenant, name))
		return
	}
	writeJSON(w, http.StatusOK, s.tenantStatus(name))
}

// tenantStatus assembles the admin status row (zero value when the
// tenant vanished between lookup and assembly).
func (s *Server) tenantStatus(name string) TenantStatusResponse {
	t, err := s.Tenant(name)
	if err != nil {
		return TenantStatusResponse{Name: name}
	}
	v := t.view.Load()
	return TenantStatusResponse{
		Name:         name,
		Strategies:   t.ix.Len(),
		Open:         v.Open,
		Serving:      v.Serving,
		Epoch:        v.Epoch,
		Availability: v.Availability,
		Health:       t.health(),
		Draining:     t.draining.Load(),
	}
}

// --- plumbing ---

type statusError struct {
	code int
	msg  string
}

func (e statusError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return statusError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errorDetail maps a domain error onto its HTTP status and uniform
// envelope: unknown tenant/request → 404, duplicate or already-served →
// 409, validation → 400, shed under overload → 429 with a retry hint,
// closed or read-only tenant → 503 with a retry hint, anything else →
// 500. Single-op handlers and per-op batch results share this mapping,
// so an op fails identically whichever wire carried it.
//
// The 429/503 split is semantic, not cosmetic: 429 (overloaded) means
// the server chose not to take the work (queue full, deadline
// unmeetable, pool saturated) and a backoff of RetryAfterMs should
// succeed; 503 means the tenant cannot take writes at all — shutting
// down (tenant_closed: retry shortly against the replacement) or
// WAL-broken (wal_broken: no retry helps until an operator restarts,
// hence the longer hint). Both guarantee the mutation left no trace.
func errorDetail(err error) (int, ErrorDetail) {
	d := ErrorDetail{Code: CodeInternal, Message: err.Error()}
	code := http.StatusInternalServerError
	var se statusError
	var oe *OverloadError
	switch {
	case errors.As(err, &se):
		code = se.code
		d.Code = CodeBadRequest
	case errors.As(err, &oe):
		code = http.StatusTooManyRequests
		d.Code = CodeOverloaded
		// The envelope carries the precise projected wait in milliseconds;
		// only the Retry-After header (writeError) rounds up to whole
		// seconds. The floor of 1 keeps the hint present and parseable even
		// when the projected wait is under a millisecond.
		d.RetryAfterMs = oe.RetryAfter.Milliseconds()
		if d.RetryAfterMs < 1 {
			d.RetryAfterMs = 1
		}
	case errors.Is(err, ErrUnknownTenant):
		code = http.StatusNotFound
		d.Code = CodeUnknownTenant
	case errors.Is(err, stream.ErrUnknownID):
		code = http.StatusNotFound
		d.Code = CodeUnknownRequest
	case errors.Is(err, stream.ErrDuplicateID):
		code = http.StatusConflict
		d.Code = CodeDuplicateID
	case errors.Is(err, stream.ErrServed):
		code = http.StatusConflict
		d.Code = CodeAlreadyServed
	case errors.Is(err, stream.ErrEmptyID), errors.Is(err, stream.ErrIDTooLong), errors.Is(err, stream.ErrBadAvailability),
		errors.Is(err, strategy.ErrBadParam), errors.Is(err, strategy.ErrBadCardinality),
		errors.Is(err, adpar.ErrBadK), errors.Is(err, adpar.ErrNotEnoughStrategies):
		code = http.StatusBadRequest
		d.Code = CodeInvalidArgument
	case errors.Is(err, ErrDuplicateTenant):
		code = http.StatusConflict
		d.Code = CodeDuplicateTenant
	case errors.Is(err, ErrNoDurability):
		code = http.StatusConflict
		d.Code = CodeNoDurability
	case errors.Is(err, ErrTenantClosed):
		code = http.StatusServiceUnavailable
		d.Code = CodeTenantClosed
		d.RetryAfterMs = 1000
	case errors.Is(err, ErrWALBroken):
		code = http.StatusServiceUnavailable
		d.Code = CodeWALBroken
		d.RetryAfterMs = 30000
	}
	return code, d
}

// writeError renders one domain error as the whole response, with the
// Retry-After header mirroring the envelope's hint (rounded up to whole
// seconds, the header's granularity) and the envelope echoing the trace
// ID the middleware already stamped on the response header.
func writeError(w http.ResponseWriter, err error) {
	code, d := errorDetail(err)
	d.TraceID = w.Header().Get(TraceHeader)
	if d.RetryAfterMs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(time.Duration(d.RetryAfterMs)*time.Millisecond)))
	}
	writeJSON(w, code, ErrorResponse{Error: d})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	// An encode failure means the connection is gone; with the status
	// already written there is no recovery path.
	_ = json.NewEncoder(w).Encode(v)
}
