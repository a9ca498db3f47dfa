package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"stratrec/internal/store"
	"stratrec/internal/strategy"
)

// adminCatalog is a small valid catalog for runtime-create tests:
// entries without fitted models, so the server's anchored-model default
// materializes them exactly like boot-time loading would.
func adminCatalog() store.Catalog {
	return store.Catalog{
		Workforce: 0.7,
		Entries: []store.Entry{
			{Name: "s1", Structure: "SEQ", Organize: "IND", Style: "CRO",
				Params: strategy.Params{Quality: 0.9, Cost: 0.2, Latency: 0.2}},
			{Name: "s2", Structure: "SIM", Organize: "COL", Style: "HYB",
				Params: strategy.Params{Quality: 0.8, Cost: 0.15, Latency: 0.25}},
			{Name: "s3", Structure: "SEQ", Organize: "COL", Style: "CRO",
				Params: strategy.Params{Quality: 0.7, Cost: 0.1, Latency: 0.3}},
		},
	}
}

// TestAdminTenantLifecycle: a tenant created over the wire takes
// traffic, reports status, 409s on duplicate create, drains with a
// final checkpoint, 404s afterwards — and a restart that carries the
// same catalog in its boot config recovers the drained tenant's
// acknowledged state cleanly.
func TestAdminTenantLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tenants: map[string]TenantConfig{"alpha": fixedTenant(4, 0.7)},
		DataDir: dir,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Closed mid-test for the restart, so no newTestServer cleanup here.
	hs := httptest.NewServer(s1.Handler())
	client := hs.Client()
	create := CreateTenantRequest{Catalog: adminCatalog()}

	var st TenantStatusResponse
	if code := call(t, client, "POST", hs.URL+"/v1/admin/tenants/beta", create, &st); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	if st.Name != "beta" || st.Strategies != 3 || st.Availability != 0.7 {
		t.Fatalf("created status: %+v", st)
	}

	// Duplicate name: 409 duplicate_tenant, existing tenant untouched.
	var envelope ErrorResponse
	if code := call(t, client, "POST", hs.URL+"/v1/admin/tenants/beta", create, &envelope); code != http.StatusConflict {
		t.Fatalf("duplicate create status %d", code)
	}
	if envelope.Error.Code != CodeDuplicateTenant {
		t.Fatalf("duplicate create code %q", envelope.Error.Code)
	}
	// Bad catalog: 400 before any registry mutation.
	if code := call(t, client, "POST", hs.URL+"/v1/admin/tenants/gamma",
		CreateTenantRequest{Catalog: store.Catalog{Workforce: 0.5}}, &envelope); code != http.StatusBadRequest {
		t.Fatalf("empty catalog status %d", code)
	}
	// A negative loop setting is refused, not read as its default.
	if code := call(t, client, "POST", hs.URL+"/v1/admin/tenants/gamma",
		CreateTenantRequest{Coalesce: -1, Catalog: adminCatalog()}, &envelope); code != http.StatusBadRequest {
		t.Fatalf("negative coalesce status %d", code)
	}
	if _, err := s1.Tenant("gamma"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("refused tenant is registered: %v", err)
	}

	// The runtime tenant takes durable traffic like a boot-time one.
	var sub SubmitResponse
	for _, id := range []string{"r1", "r2"} {
		if code := call(t, client, "POST", hs.URL+"/v1/tenants/beta/requests",
			SubmitRequest{ID: id, Quality: 0.4, Cost: 0.9, Latency: 0.9, K: 1}, &sub); code != http.StatusOK {
			t.Fatalf("submit %s status %d", id, code)
		}
	}
	if code := call(t, client, "GET", hs.URL+"/v1/admin/tenants/beta", nil, &st); code != http.StatusOK {
		t.Fatalf("status status %d", code)
	}
	if st.Open != 2 || st.Draining {
		t.Fatalf("status after traffic: %+v", st)
	}

	bt, _ := s1.Tenant("beta")
	want := bt.Snapshot()

	var drain DrainTenantResponse
	if code := call(t, client, "DELETE", hs.URL+"/v1/admin/tenants/beta", nil, &drain); code != http.StatusOK {
		t.Fatalf("drain status %d", code)
	}
	if drain.Tenant != "beta" || drain.Checkpoint.Requests != 2 {
		t.Fatalf("drain response: %+v", drain)
	}
	// Detached: both data and admin paths answer 404 now.
	if code := call(t, client, "POST", hs.URL+"/v1/tenants/beta/requests",
		SubmitRequest{ID: "r3", Quality: 0.4, Cost: 0.9, Latency: 0.9, K: 1}, &envelope); code != http.StatusNotFound {
		t.Fatalf("submit after drain status %d", code)
	}
	if code := call(t, client, "DELETE", hs.URL+"/v1/admin/tenants/beta", nil, &envelope); code != http.StatusNotFound {
		t.Fatalf("double drain status %d", code)
	}
	hs.Close()
	s1.Close()

	// Restart with beta promoted into the boot config: recovery replays
	// the drained tenant's checkpoint + WAL to exactly the acked state.
	betaCfg, err := tenantConfigFromCreate(create)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tenants["beta"] = betaCfg
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	bt2, err := s2.Tenant("beta")
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, want, bt2.Snapshot())
}

// TestDrainRejectsLiveWrites: ops admitted while the drain flag is up
// answer ErrTenantClosed (503 family) — not an ack, not a hang.
func TestDrainRejectsLiveWrites(t *testing.T) {
	s, err := New(Config{Tenants: map[string]TenantConfig{"alpha": fixedTenant(4, 0.7)}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tn, _ := s.Tenant("alpha")
	tn.draining.Store(true)
	if _, err := tn.Submit(context.Background(), submitReqN("x", 0.3)); !errors.Is(err, ErrTenantClosed) {
		t.Fatalf("submit while draining: %v, want ErrTenantClosed", err)
	}
}

// TestAdminTenantInheritsParallelism: a tenant created over the admin
// route sweeps with the server's Parallelism, like the boot tenants.
func TestAdminTenantInheritsParallelism(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Tenants:     map[string]TenantConfig{"alpha": fixedTenant(4, 0.7)},
		Parallelism: 1,
	})
	var st TenantStatusResponse
	if code := call(t, hs.Client(), "POST", hs.URL+"/v1/admin/tenants/beta",
		CreateTenantRequest{Catalog: adminCatalog()}, &st); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	for _, name := range []string{"alpha", "beta"} {
		tn, err := s.Tenant(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := tn.ix.Parallelism; got != 1 {
			t.Errorf("tenant %s: index Parallelism %d, want the server's 1", name, got)
		}
	}
}
