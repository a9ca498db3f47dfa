package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"stratrec/internal/adpar"
	"stratrec/internal/batch"
	"stratrec/internal/linmodel"
	"stratrec/internal/strategy"
	"stratrec/internal/stream"
	"stratrec/internal/synth"
	"stratrec/internal/wal"
	"stratrec/internal/workforce"
)

// fixedTenant builds a deterministic catalog: every strategy satisfies any
// reasonable request and the workforce requirement of a request with
// quality threshold q is (q - 0.2) / 0.8, making plan arithmetic exact.
func fixedTenant(n int, W float64) TenantConfig {
	set := make(strategy.Set, n)
	models := make(workforce.PerStrategyModels, n)
	for i := range set {
		set[i] = strategy.Strategy{ID: i, Params: strategy.Params{Quality: 1, Cost: 0.1, Latency: 0.1}}
		models[i] = linmodel.ParamModels{
			Quality: linmodel.Model{Alpha: 0.8, Beta: 0.2},
			Cost:    linmodel.Model{Alpha: 0, Beta: 0.1},
			Latency: linmodel.Model{Alpha: 0, Beta: 0.1},
		}
	}
	return TenantConfig{
		Set: set, Models: models,
		Mode: workforce.MaxCase, Objective: batch.Throughput,
		InitialW: W,
	}
}

// synthTenant builds a tenant from the Section 5.2.2 generator.
func synthTenant(seed int64, n int, W float64) TenantConfig {
	rng := rand.New(rand.NewSource(seed))
	gen := synth.DefaultConfig(synth.Uniform)
	set := gen.Strategies(rng, n)
	return TenantConfig{
		Set: set, Models: gen.Models(rng, set),
		Mode: workforce.MaxCase, Objective: batch.Throughput,
		InitialW: W,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close() // drains in-flight requests first
		s.Close()
	})
	return s, hs
}

// call performs a JSON round-trip and decodes the response into out.
func call(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func TestServeTwoTenantsEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, Config{Tenants: map[string]TenantConfig{
		"alpha": fixedTenant(5, 0.5),
		"beta":  fixedTenant(3, 1.0),
	}})
	c := hs.Client()

	// healthz and tenant listing.
	var health HealthResponse
	if code := call(t, c, "GET", hs.URL+"/healthz", nil, &health); code != 200 || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, health)
	}
	if len(health.Tenants) != 2 || health.Tenants["alpha"].Status != HealthOK {
		t.Fatalf("healthz tenants = %+v", health.Tenants)
	}
	var infos []TenantInfo
	if code := call(t, c, "GET", hs.URL+"/v1/tenants", nil, &infos); code != 200 {
		t.Fatalf("tenants = %d", code)
	}
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Fatalf("tenant listing = %+v", infos)
	}
	if infos[0].Strategies != 5 || infos[1].Strategies != 3 {
		t.Errorf("strategy counts = %+v", infos)
	}

	alphaURL := hs.URL + "/v1/tenants/alpha"

	// Submit two affordable requests and one that cannot fit at W=0.5.
	var sub SubmitResponse
	for _, id := range []string{"a", "b"} {
		code := call(t, c, "POST", alphaURL+"/requests",
			SubmitRequest{ID: id, Quality: 0.40, Cost: 0.5, Latency: 0.5, K: 1}, &sub) // req 0.25
		if code != 200 || !sub.Served {
			t.Fatalf("submit %s = %d %+v", id, code, sub)
		}
	}
	code := call(t, c, "POST", alphaURL+"/requests",
		SubmitRequest{ID: "d", Quality: 0.60, Cost: 0.5, Latency: 0.5, K: 2}, &sub) // req 0.5: displaced
	if code != 200 || sub.Served {
		t.Fatalf("oversubscribed submit = %d %+v", code, sub)
	}

	// Plan reflects the split, with per-request detail.
	var plan PlanResponse
	if code := call(t, c, "GET", alphaURL+"/plan", nil, &plan); code != 200 {
		t.Fatalf("plan = %d", code)
	}
	if len(plan.Serving) != 2 || len(plan.Displaced) != 1 || plan.Displaced[0] != "d" {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Tenant != "alpha" || plan.Availability != 0.5 || len(plan.Requests) != 3 {
		t.Errorf("plan header = %+v", plan)
	}
	for _, pr := range plan.Requests {
		if pr.Serving && (pr.Workforce == nil || len(pr.Strategies) == 0) {
			t.Errorf("served request missing detail: %+v", pr)
		}
	}

	// The displaced request gets an ADPaR alternative identical to a
	// from-scratch Exact solve on the same catalog.
	var alt AlternativeResponse
	if code := call(t, c, "GET", alphaURL+"/requests/d/alternative", nil, &alt); code != 200 {
		t.Fatalf("alternative = %d", code)
	}
	want, err := adpar.Exact(fixedTenant(5, 0.5).Set, strategy.Request{
		ID: "d", Params: strategy.Params{Quality: 0.60, Cost: 0.5, Latency: 0.5}, K: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if alt.Distance != want.Distance || alt.Quality != want.Alternative.Quality ||
		alt.Cost != want.Alternative.Cost || alt.Latency != want.Alternative.Latency {
		t.Errorf("alternative = %+v, want %+v (distance %v)", alt, want.Alternative, want.Distance)
	}
	if alt.Covered < 2 || len(alt.Strategies) != 2 {
		t.Errorf("alternative coverage = %+v", alt)
	}

	// Tenants are isolated: beta has its own pool and plan.
	betaURL := hs.URL + "/v1/tenants/beta"
	if code := call(t, c, "POST", betaURL+"/requests",
		SubmitRequest{ID: "a", Quality: 0.9, Cost: 0.5, Latency: 0.5, K: 1}, &sub); code != 200 || !sub.Served {
		t.Fatalf("beta submit = %d %+v (same ID as alpha must be fine)", code, sub)
	}
	if code := call(t, c, "GET", betaURL+"/plan", nil, &plan); code != 200 || len(plan.Serving) != 1 || len(plan.Displaced) != 0 {
		t.Fatalf("beta plan = %d %+v", code, plan)
	}

	// Availability drift: collapsing W displaces alpha's requests;
	// revoking frees capacity.
	var ep EpochResponse
	if code := call(t, c, "PUT", alphaURL+"/availability", AvailabilityRequest{Workforce: 0.25}, &ep); code != 200 {
		t.Fatalf("availability = %d", code)
	}
	if code := call(t, c, "GET", alphaURL+"/plan", nil, &plan); code != 200 || len(plan.Serving) != 1 {
		t.Fatalf("plan after drought = %d %+v", code, plan)
	}
	if code := call(t, c, "DELETE", alphaURL+"/requests/a", nil, &ep); code != 200 {
		t.Fatalf("revoke = %d", code)
	}

	// Error mapping.
	var apiErr ErrorResponse
	if code := call(t, c, "GET", hs.URL+"/v1/tenants/nope/plan", nil, &apiErr); code != 404 {
		t.Errorf("unknown tenant = %d %+v", code, apiErr)
	}
	if code := call(t, c, "DELETE", alphaURL+"/requests/ghost", nil, &apiErr); code != 404 {
		t.Errorf("unknown revoke = %d", code)
	}
	if code := call(t, c, "POST", alphaURL+"/requests",
		SubmitRequest{ID: "b", Quality: 0.4, Cost: 0.5, Latency: 0.5, K: 1}, &apiErr); code != 409 {
		t.Errorf("duplicate submit = %d %+v", code, apiErr)
	}
	if code := call(t, c, "POST", alphaURL+"/requests",
		SubmitRequest{Quality: 0.4, Cost: 0.5, Latency: 0.5, K: 1}, &apiErr); code != 400 {
		t.Errorf("empty ID = %d", code)
	}
	if code := call(t, c, "POST", alphaURL+"/requests",
		SubmitRequest{ID: "x", Quality: 2, Cost: 0.5, Latency: 0.5, K: 1}, &apiErr); code != 400 {
		t.Errorf("invalid params = %d", code)
	}
	if code := call(t, c, "PUT", alphaURL+"/availability", AvailabilityRequest{Workforce: 1.5}, &apiErr); code != 400 {
		t.Errorf("bad availability = %d", code)
	}
	if code := call(t, c, "GET", alphaURL+"/requests/b/alternative", nil, &apiErr); code != 409 {
		t.Errorf("alternative for served = %d %+v", code, apiErr)
	}

	// Metrics render as JSON and count per tenant.
	resp, err := c.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		TenantCount int `json:"tenant_count"`
		Tenants     map[string]struct {
			Submits int `json:"submits"`
			Epoch   int `json:"epoch"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(data, &metrics); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, data)
	}
	if metrics.TenantCount != 2 || metrics.Tenants["alpha"].Submits != 3 || metrics.Tenants["beta"].Submits != 1 {
		t.Errorf("metrics = %s", data)
	}
}

// TestServeConcurrentTenantsUnderRace drives submit/plan/alternative
// across two tenants from many goroutines; run with -race this is the
// acceptance check that per-tenant serialization plus lock-free snapshot
// reads are sound.
func TestServeConcurrentTenantsUnderRace(t *testing.T) {
	s, hs := newTestServer(t, Config{Tenants: map[string]TenantConfig{
		"alpha": synthTenant(1, 24, 0.7),
		"beta":  synthTenant(2, 16, 0.6),
	}})
	c := hs.Client()

	const workers = 8
	const opsPerWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := []string{"alpha", "beta"}[w%2]
			base := hs.URL + "/v1/tenants/" + tenant
			rng := rand.New(rand.NewSource(int64(w)))
			gen := synth.DefaultConfig(synth.Uniform)
			for i := 0; i < opsPerWorker; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				var req strategy.Request
				if rng.Float64() < 0.4 {
					req = gen.ADPaRRequest(rng, 2) // tight: exercises alternatives
				} else {
					req = gen.Requests(rng, 1, 2)[0]
				}
				var sub SubmitResponse
				code := call(t, c, "POST", base+"/requests", SubmitRequest{
					ID: id, Quality: req.Quality, Cost: req.Cost, Latency: req.Latency, K: req.K,
				}, &sub)
				if code != 200 {
					t.Errorf("submit %s = %d", id, code)
					return
				}
				if !sub.Served {
					if code := call(t, c, "GET", base+"/requests/"+id+"/alternative", nil, nil); code != 200 && code != 409 {
						t.Errorf("alternative %s = %d", id, code)
						return
					}
				}
				var plan PlanResponse
				if code := call(t, c, "GET", base+"/plan", nil, &plan); code != 200 {
					t.Errorf("plan = %d", code)
					return
				}
				if rng.Float64() < 0.3 {
					if code := call(t, c, "DELETE", base+"/requests/"+id, nil, nil); code != 200 {
						t.Errorf("revoke %s = %d", id, code)
						return
					}
				}
				if rng.Float64() < 0.05 {
					if code := call(t, c, "PUT", base+"/availability",
						AvailabilityRequest{Workforce: 0.3 + 0.7*rng.Float64()}, nil); code != 200 {
						t.Errorf("drift = %d", code)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Every tenant's final snapshot is internally consistent.
	for _, name := range s.TenantNames() {
		tn, err := s.Tenant(name)
		if err != nil {
			t.Fatal(err)
		}
		snap := tn.Snapshot()
		if got := len(snap.Plan.Serving) + len(snap.Plan.Displaced); got != len(snap.Requests) {
			t.Errorf("tenant %s: %d serving + %d displaced != %d open",
				name, len(snap.Plan.Serving), len(snap.Plan.Displaced), len(snap.Requests))
		}
	}
}

// TestServeShutdownDrains: Close stops the event loops; subsequent
// operations fail with 503 and Close is idempotent.
func TestServeShutdownDrains(t *testing.T) {
	s, err := New(Config{Tenants: map[string]TenantConfig{"alpha": fixedTenant(3, 0.8)}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := hs.Client()

	var sub SubmitResponse
	if code := call(t, c, "POST", hs.URL+"/v1/tenants/alpha/requests",
		SubmitRequest{ID: "a", Quality: 0.5, Cost: 0.5, Latency: 0.5, K: 1}, &sub); code != 200 {
		t.Fatalf("submit = %d", code)
	}
	s.Close()
	s.Close() // idempotent

	var apiErr ErrorResponse
	if code := call(t, c, "POST", hs.URL+"/v1/tenants/alpha/requests",
		SubmitRequest{ID: "b", Quality: 0.5, Cost: 0.5, Latency: 0.5, K: 1}, &apiErr); code != 503 {
		t.Errorf("submit after close = %d %+v", code, apiErr)
	}
	if apiErr.Error.Code != CodeTenantClosed || !strings.Contains(apiErr.Error.Message, "closed") {
		t.Errorf("close error body = %+v", apiErr)
	}
	if apiErr.Error.RetryAfterMs != 1000 {
		t.Errorf("close error retry hint = %+v", apiErr.Error)
	}
	// Reads stay available from the last snapshot even after close.
	var plan PlanResponse
	if code := call(t, c, "GET", hs.URL+"/v1/tenants/alpha/plan", nil, &plan); code != 200 || len(plan.Serving) != 1 {
		t.Errorf("plan after close = %d %+v", code, plan)
	}

	// Direct tenant API surfaces ErrTenantClosed.
	tn, err := s.Tenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Submit(context.Background(), strategy.Request{ID: "c", Params: strategy.Params{Quality: 0.5, Cost: 0.5, Latency: 0.5}, K: 1}); !errors.Is(err, ErrTenantClosed) {
		t.Errorf("submit after close = %v", err)
	}
}

// TestListenAndServeReleasesTenants: the listen path `stratrec serve`
// runs stops the tenants on both of its exits, a cancelled context (nil
// error) and a listen failure (the error comes back), so a later
// mutation gets ErrTenantClosed and the WAL lock is free again.
func TestListenAndServeReleasesTenants(t *testing.T) {
	for _, tc := range []struct {
		name   string
		addr   string
		cancel bool
	}{
		{"cancelled", "127.0.0.1:0", true},
		{"listen error", "127.0.0.1:-1", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(Config{Tenants: map[string]TenantConfig{"alpha": fixedTenant(3, 0.8)}, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				cancel()
			}
			err = s.ListenAndServe(ctx, tc.addr, time.Second)
			var opErr *net.OpError
			switch {
			case tc.cancel && err != nil:
				t.Fatalf("ListenAndServe after cancel = %v, want nil", err)
			case !tc.cancel && !(errors.As(err, &opErr) && opErr.Op == "listen"):
				t.Fatalf("ListenAndServe on %s = %v, want the listen error", tc.addr, err)
			}

			tn, err := s.Tenant("alpha")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tn.Submit(context.Background(), strategy.Request{ID: "a", Params: strategy.Params{Quality: 0.5, Cost: 0.5, Latency: 0.5}, K: 1}); !errors.Is(err, ErrTenantClosed) {
				t.Errorf("submit after ListenAndServe = %v, want ErrTenantClosed", err)
			}
			l, _, err := wal.Open(filepath.Join(dir, "alpha"), wal.Options{})
			if err != nil {
				t.Fatalf("WAL still locked after ListenAndServe: %v", err)
			}
			l.Close()
		})
	}
}

func TestServeConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no tenants accepted")
	}
	if _, err := New(Config{Tenants: map[string]TenantConfig{
		"bad": {Set: strategy.Set{}, Models: workforce.PerStrategyModels{}},
	}}); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := New(Config{Tenants: map[string]TenantConfig{
		"bad": func() TenantConfig { c := fixedTenant(3, 0.5); c.InitialW = 2; return c }(),
	}}); err == nil {
		t.Error("bad initial availability accepted")
	}
	if _, err := (&Server{tenants: map[string]*Tenant{}}).Tenant("x"); !errors.Is(err, ErrUnknownTenant) {
		t.Error("unknown tenant lookup did not fail")
	}
}

// TestTenantModelCountMismatch: a tenant whose model slice does not match
// its catalog is refused by New and by CreateTenant with both counts
// named. Accepted, it panicked the tenant loop, and with it the process,
// on the first submit, once the requirement scan indexed past the models.
func TestTenantModelCountMismatch(t *testing.T) {
	for _, models := range []int{10, 30} {
		cfg := synthTenant(5, 20, 0.7)
		cfg.Models = synthTenant(5, models, 0.7).Models
		want := fmt.Sprintf("20 strategies with %d model sets", models)

		s, err := New(Config{Tenants: map[string]TenantConfig{"alpha": cfg}})
		if err == nil {
			s.Close()
			t.Fatalf("New accepted 20 strategies with %d model sets", models)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("New: err = %v, want it to contain %q", err, want)
		}

		s, err = New(Config{Tenants: map[string]TenantConfig{"beta": fixedTenant(3, 0.7)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CreateTenant("alpha", cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CreateTenant: err = %v, want it to contain %q", err, want)
		}
		if _, err := s.Tenant("alpha"); !errors.Is(err, ErrUnknownTenant) {
			t.Errorf("refused tenant is registered: %v", err)
		}
		s.Close()
	}
}

// TestServeReadYourWrites: a submit reply is sent only after the snapshot
// is published, so an immediate plan read sees the write.
func TestServeReadYourWrites(t *testing.T) {
	_, hs := newTestServer(t, Config{Tenants: map[string]TenantConfig{"alpha": fixedTenant(4, 0.9)}})
	c := hs.Client()
	base := hs.URL + "/v1/tenants/alpha"
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("r%d", i)
		var sub SubmitResponse
		if code := call(t, c, "POST", base+"/requests",
			SubmitRequest{ID: id, Quality: 0.3, Cost: 0.5, Latency: 0.5, K: 1}, &sub); code != 200 {
			t.Fatalf("submit = %d", code)
		}
		var plan PlanResponse
		if code := call(t, c, "GET", base+"/plan", nil, &plan); code != 200 {
			t.Fatalf("plan = %d", code)
		}
		if len(plan.Requests) != i+1 {
			t.Fatalf("after %d submits plan shows %d requests", i+1, len(plan.Requests))
		}
	}
}

// TestTenantSharedIndexMatchesManager: the tenant's lock-free alternative
// equals the manager's own Alternative on the shared warm index.
func TestTenantSharedIndexMatchesManager(t *testing.T) {
	cfg := fixedTenant(5, 0.5)
	tn, err := newTenant("x", cfg, durability{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tn.close()
	reqs := []strategy.Request{
		{ID: "a", Params: strategy.Params{Quality: 0.40, Cost: 0.5, Latency: 0.5}, K: 1},
		{ID: "b", Params: strategy.Params{Quality: 0.40, Cost: 0.5, Latency: 0.5}, K: 1},
		{ID: "c", Params: strategy.Params{Quality: 0.60, Cost: 0.5, Latency: 0.5}, K: 2},
	}
	for _, d := range reqs {
		if _, err := tn.Submit(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	got, rs, err := tn.Alternative(context.Background(), "c")
	if err != nil {
		t.Fatal(err)
	}
	if rs.ID != "c" || rs.Request.K != 2 {
		t.Errorf("resolved request state = %+v", rs)
	}
	mgr, err := stream.NewManager(cfg.Set, cfg.Models, cfg.Mode, cfg.Objective, cfg.InitialW)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range reqs {
		if _, err := mgr.Submit(d); err != nil {
			t.Fatal(err)
		}
	}
	want, err := mgr.Alternative("c")
	if err != nil {
		t.Fatal(err)
	}
	if got.Alternative != want.Alternative || got.Distance != want.Distance {
		t.Errorf("tenant alternative = %+v, manager = %+v", got, want)
	}
}
