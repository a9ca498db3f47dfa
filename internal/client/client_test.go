package client

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stratrec/internal/batch"
	"stratrec/internal/server"
	"stratrec/internal/store"
	"stratrec/internal/strategy"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// newBackend hosts one synthetic tenant "alpha" for the test's lifetime.
func newBackend(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	if cfg.Tenants == nil {
		gen := synth.DefaultConfig(synth.Uniform)
		rng := rand.New(rand.NewSource(7))
		set := gen.Strategies(rng, 16)
		cfg.Tenants = map[string]server.TenantConfig{"alpha": {
			Set: set, Models: gen.Models(rng, set),
			Mode: workforce.MaxCase, Objective: batch.Throughput,
			InitialW: 0.7,
		}}
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// TestClientEndToEnd exercises every method against a real server: typed
// happy paths, batched ingest, and envelope decoding into APIError.
func TestClientEndToEnd(t *testing.T) {
	_, hs := newBackend(t, server.Config{})
	c := New(hs.URL, WithHTTPClient(hs.Client()))
	ctx := context.Background()

	sub, err := c.Submit(ctx, "alpha", SubmitRequest{ID: "r1", Quality: 0.4, Cost: 0.9, Latency: 0.9, K: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if sub.ID != "r1" || sub.Epoch == 0 {
		t.Fatalf("submit response: %+v", sub)
	}

	plan, err := c.Plan(ctx, "alpha")
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if plan.Tenant != "alpha" || len(plan.Requests) != 1 || plan.Epoch != sub.Epoch {
		t.Fatalf("plan: %+v", plan)
	}

	sum, err := c.PlanSummary(ctx, "alpha")
	if err != nil {
		t.Fatalf("plan summary: %v", err)
	}
	if sum.Epoch != plan.Epoch || sum.Open != len(plan.Requests) ||
		sum.Serving != len(plan.Serving) || sum.Objective != plan.Objective {
		t.Fatalf("plan summary %+v diverges from plan %+v", sum, plan)
	}

	av, err := c.SetAvailability(ctx, "alpha", 0.6)
	if err != nil {
		t.Fatalf("availability: %v", err)
	}
	if av.Epoch <= sub.Epoch {
		t.Fatalf("availability epoch %d did not advance past %d", av.Epoch, sub.Epoch)
	}

	// Batched ingest: the revoke targets the request of the previous
	// single-op submit.
	resp, err := c.SendOps(ctx, "alpha", []BatchOp{
		{Op: server.OpSubmit, ID: "r2", Quality: 0.45, Cost: 0.9, Latency: 0.9},
		{Op: server.OpRevoke, ID: "r1"},
		{Op: server.OpAvailability, Workforce: 0.65},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch results: %+v", resp.Results)
	}
	for i, r := range resp.Results {
		if r.Status != http.StatusOK {
			t.Fatalf("batch op %d: %+v", i, r)
		}
	}
	if resp.Results[0].Served == nil || resp.Results[1].Served != nil {
		t.Fatalf("served pointers: %+v", resp.Results)
	}

	infos, err := c.Tenants(ctx)
	if err != nil || len(infos) != 1 || infos[0].Name != "alpha" {
		t.Fatalf("tenants: %v %+v", err, infos)
	}
	if infos[0].Open != 1 || infos[0].Availability != 0.65 {
		t.Fatalf("tenant info after batch: %+v", infos[0])
	}

	// Typed errors: a revoke of an unknown ID decodes the envelope.
	var apiErr *APIError
	if _, err := c.Revoke(ctx, "alpha", "ghost"); !errors.As(err, &apiErr) {
		t.Fatalf("revoke ghost: %v", err)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Code != server.CodeUnknownRequest {
		t.Fatalf("revoke ghost error: %+v", apiErr)
	}
	if _, err := c.Alternative(ctx, "alpha", "ghost"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("alternative ghost: %v", err)
	}
	// Checkpoint without durability: 409 no_durability.
	if _, err := c.Checkpoint(ctx); !errors.As(err, &apiErr) {
		t.Fatalf("checkpoint: %v", err)
	}
	if apiErr.Status != http.StatusConflict || apiErr.Code != server.CodeNoDurability {
		t.Fatalf("checkpoint error: %+v", apiErr)
	}

	// Runtime tenant admin: create, read, drain, and the name 404s.
	st, err := c.CreateTenant(ctx, "beta", CreateTenantRequest{Catalog: store.Catalog{
		Workforce: 0.7,
		Entries: []store.Entry{{Name: "s1", Structure: "SEQ", Organize: "IND", Style: "CRO",
			Params: strategy.Params{Quality: 0.9, Cost: 0.2, Latency: 0.2}}},
	}})
	if err != nil || st.Name != "beta" || st.Strategies != 1 {
		t.Fatalf("create tenant: %v %+v", err, st)
	}
	if st, err := c.TenantStatus(ctx, "beta"); err != nil || st.Name != "beta" || st.Availability != 0.7 {
		t.Fatalf("tenant status: %v %+v", err, st)
	}
	if dr, err := c.DrainTenant(ctx, "beta"); err != nil || dr.Tenant != "beta" {
		t.Fatalf("drain tenant: %v %+v", err, dr)
	}
	if _, err := c.TenantStatus(ctx, "beta"); !errors.As(err, &apiErr) || apiErr.Code != server.CodeUnknownTenant {
		t.Fatalf("status of a drained tenant: %v", err)
	}
}

// TestAPIErrorFallback: a non-envelope body (a proxy error page) still
// yields a usable APIError, with the hint and the trace ID read from the
// headers.
func TestAPIErrorFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.TraceHeader, "trace-1")
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(http.StatusBadGateway)
		w.Write([]byte("bad gateway\n"))
	}))
	defer ts.Close()
	var apiErr *APIError
	if _, err := New(ts.URL).Plan(context.Background(), "alpha"); !errors.As(err, &apiErr) {
		t.Fatalf("plan: %v", err)
	}
	if apiErr.Status != http.StatusBadGateway || apiErr.Code != "" ||
		apiErr.Message != "bad gateway" || apiErr.RetryAfter != 3*time.Second ||
		apiErr.TraceID != "trace-1" {
		t.Fatalf("fallback error: %+v", apiErr)
	}
}

// TestParseRetryAfter: both RFC 9110 forms — delta-seconds and HTTP-date —
// plus the garbage cases proxies actually emit.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"7", 7 * time.Second},
		{"0", 0},
		{"-3", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0}, // date in the past
		{"soon", 0},
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in, now); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestRetryAfterMillisecondPrecision: the envelope's retry_after_ms wins
// over the whole-second header, end to end — a 10ms hint decodes as 10ms,
// not the 1s the rounded header implies — and its trace_id wins over the
// echoed header.
func TestRetryAfterMillisecondPrecision(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1") // whole-second ceiling of 10ms
		w.Header().Set(server.TraceHeader, "echoed")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: server.ErrorDetail{
			Code: server.CodeOverloaded, Message: "queue full", RetryAfterMs: 10, TraceID: "enveloped",
		}})
	}))
	defer ts.Close()
	var apiErr *APIError
	if _, err := New(ts.URL).Submit(context.Background(), "alpha", SubmitRequest{ID: "r1"}); !errors.As(err, &apiErr) {
		t.Fatalf("submit: %v", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Code != server.CodeOverloaded {
		t.Fatalf("shed error: %+v", apiErr)
	}
	if apiErr.RetryAfter != 10*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 10ms (envelope must beat the rounded header)", apiErr.RetryAfter)
	}
	if apiErr.TraceID != "enveloped" {
		t.Fatalf("TraceID = %q, want the envelope's", apiErr.TraceID)
	}

	// An HTTP-date header with no envelope still yields a usable hint.
	dated := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", time.Now().Add(5*time.Second).Format(http.TimeFormat))
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("maintenance\n"))
	}))
	defer dated.Close()
	if _, err := New(dated.URL).Plan(context.Background(), "alpha"); !errors.As(err, &apiErr) {
		t.Fatalf("plan: %v", err)
	}
	if apiErr.RetryAfter <= 0 || apiErr.RetryAfter > 5*time.Second {
		t.Fatalf("HTTP-date RetryAfter = %v, want (0, 5s]", apiErr.RetryAfter)
	}
}
