package main

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stratrec/internal/client"
	"stratrec/internal/server"
	"stratrec/internal/store"
)

// adminServer serves the tenants file's catalogs durably behind httptest
// and writes one of them out as a single-catalog file for `tenant create`.
func adminServer(t *testing.T) (url, catalog string) {
	t.Helper()
	cfg, err := buildServerConfig(catalogFlags{
		objective: "throughput", mode: "max",
		tenantsPath: "testdata/tenants.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.DataDir = t.TempDir()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})

	tenants, err := store.LoadTenants("testdata/tenants.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tenants.Tenants["marketplace"])
	if err != nil {
		t.Fatal(err)
	}
	catalog = filepath.Join(t.TempDir(), "catalog.json")
	if err := os.WriteFile(catalog, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return hs.URL, catalog
}

// TestAdminTenantLifecycle: create a tenant from a catalog file, read its
// status, drain it, and find it gone.
func TestAdminTenantLifecycle(t *testing.T) {
	url, catalog := adminServer(t)
	admin := func(args ...string) (string, error) {
		return capture(t, func() error { return runAdmin(append([]string{"-addr", url}, args...)) })
	}

	out, err := admin("tenant", "create", "annex", "-catalog", catalog, "-objective", "payoff", "-mode", "sum")
	if err != nil {
		t.Fatalf("create: %v\n%s", err, out)
	}
	if want := "created tenant annex: 4 strategies, availability 0.80, epoch "; !strings.HasPrefix(out, want) {
		t.Errorf("create printed %q, want prefix %q", out, want)
	}

	out, err = admin("tenant", "status", "annex")
	if err != nil {
		t.Fatalf("status: %v\n%s", err, out)
	}
	for _, want := range []string{"tenant annex: ok\n", "  strategies   4\n", "  open         0\n", "  availability 0.800\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DRAINING") || strings.Contains(out, "READ-ONLY") {
		t.Errorf("fresh tenant reported draining or read-only:\n%s", out)
	}

	out, err = admin("tenant", "drain", "annex")
	if err != nil {
		t.Fatalf("drain: %v\n%s", err, out)
	}
	if !strings.HasPrefix(out, "drained tenant annex") {
		t.Errorf("drain printed %q", out)
	}

	_, err = admin("tenant", "status", "annex")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != server.CodeUnknownTenant {
		t.Errorf("status after drain: err = %v, want 404 %s", err, server.CodeUnknownTenant)
	}
}

// TestAdminRefusals: malformed invocations fail before or at the server,
// and a bad objective comes back as the server's 400.
func TestAdminRefusals(t *testing.T) {
	url, catalog := adminServer(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"tenant", "create", "annex"}, "-catalog is required"},
		{[]string{"tenant", "rename", "annex"}, `unknown admin verb "rename"`},
		{[]string{"tenant", "status"}, "expected: tenant create|drain|status <name>"},
	} {
		_, err := capture(t, func() error { return runAdmin(append([]string{"-addr", url}, c.args...)) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("admin %v: err = %v, want %q", c.args, err, c.want)
		}
	}

	_, err := capture(t, func() error {
		return runAdmin([]string{"-addr", url, "tenant", "create", "annex", "-catalog", catalog, "-objective", "bogus"})
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Message, `unknown objective "bogus"`) {
		t.Errorf("bogus objective: err = %v, want the server's 400 naming it", err)
	}
}
