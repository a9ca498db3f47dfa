package main

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stratrec/internal/server"
	"stratrec/internal/synth"
)

// TestConformCrashRecoveryProfile: the kill/restart oracle runs clean
// through the CLI entry point and reports the kill and recovery.
func TestConformCrashRecoveryProfile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "crash-data")
	out, err := capture(t, func() error {
		return runConform([]string{
			"-profile", "crash-recovery",
			"-seed", "1", "-events", "400", "-quiet",
			"-data-dir", dir,
		})
	})
	if err != nil {
		t.Fatalf("conform crash-recovery: %v\n%s", err, out)
	}
	for _, want := range []string{"killed at event", "recovery", "0 divergences"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// The explicit data dir survives the clean run, so `recover` can scan
	// and fully verify it offline. The conformance tenants are seeded
	// synthetic catalogs, but with tenant-specific objective/mode cycling
	// and a different seed derivation than serve's demo tenants — so the
	// read-only scan must work, and we assert its shape.
	out, err = capture(t, func() error {
		return runRecover([]string{"-data-dir", dir})
	})
	if err != nil {
		t.Fatalf("recover scan: %v\n%s", err, out)
	}
	if !strings.Contains(out, "2 tenant(s)") || !strings.Contains(out, "tenant-1:") {
		t.Errorf("scan output unexpected:\n%s", out)
	}
}

// writeDataDir hosts the catalogs of cf on a durable server under dir,
// drives a seeded synthetic submit/revoke/drift sequence through each
// tenant's API, and closes the server, leaving its WAL behind.
func writeDataDir(t *testing.T, dir string, cf catalogFlags) {
	t.Helper()
	cfg, err := buildServerConfig(cf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DataDir = dir
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	gen := synth.DefaultConfig(synth.Uniform)
	for i, name := range s.TenantNames() {
		tn, err := s.Tenant(name)
		if err != nil {
			t.Fatal(err)
		}
		events, err := gen.Workload(rand.New(rand.NewSource(int64(i))), synth.WorkloadConfig{
			Events: 100, K: 3,
			RevokeFraction: 0.3, DriftFraction: 0.05, TightFraction: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			switch ev.Kind {
			case synth.SubmitArrival:
				_, err = tn.Submit(ctx, ev.Request)
			case synth.RevokeArrival:
				_, err = tn.Revoke(ctx, ev.RevokeID)
			case synth.DriftArrival:
				_, err = tn.SetAvailability(ctx, ev.Availability)
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", name, ev.Kind, err)
			}
		}
	}
}

// TestRecoverVerifyRoundTrip: a durable server built from serve's
// catalog flags writes a WAL, and `recover -verify` replays it against
// the same catalogs, from a tenants file or seeded demo tenants.
func TestRecoverVerifyRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	writeDataDir(t, dir, catalogFlags{
		objective: "throughput", mode: "max",
		demoTenants: 2, demoSize: 24, seed: 77,
	})
	tenantsFileDir := filepath.Join(t.TempDir(), "data")
	writeDataDir(t, tenantsFileDir, catalogFlags{
		objective: "throughput", mode: "max",
		tenantsPath: "testdata/tenants.json",
	})

	for _, args := range [][]string{
		{"-data-dir", dir, "-verify", "-demo-tenants", "2", "-demo-strategies", "24", "-seed", "77"},
		{"-data-dir", tenantsFileDir, "-verify", "-tenants", "testdata/tenants.json"},
	} {
		out, err := capture(t, func() error { return runRecover(args) })
		if err != nil {
			t.Fatalf("recover %v: %v\n%s", args, err, out)
		}
		if !strings.Contains(out, "verification OK") {
			t.Errorf("recover %v: verify output unexpected:\n%s", args, out)
		}
	}

	// A catalog tenant with no data on disk is skipped, not fabricated:
	// -verify must never create fresh WAL directories inside the artifact
	// it inspects.
	out, err := capture(t, func() error {
		return runRecover([]string{
			"-data-dir", dir, "-verify",
			"-demo-tenants", "3", "-demo-strategies", "24", "-seed", "77",
		})
	})
	if err != nil {
		t.Fatalf("recover -verify with extra catalog tenant: %v\n%s", err, out)
	}
	if !strings.Contains(out, "tenant-3 has no data on disk; skipping") {
		t.Errorf("missing skip notice:\n%s", out)
	}
	if _, statErr := os.Stat(filepath.Join(dir, "tenant-3")); !os.IsNotExist(statErr) {
		t.Error("verify fabricated a tenant-3 directory inside the artifact")
	}

	// Verifying against the WRONG catalogs must fail loudly, not quietly
	// succeed with nonsense state: a different seed changes the strategy
	// sets, so replayed requirements and epochs cannot line up.
	out, err = capture(t, func() error {
		return runRecover([]string{
			"-data-dir", dir, "-verify",
			"-demo-tenants", "2", "-demo-strategies", "24", "-seed", "78",
		})
	})
	if err == nil {
		t.Fatalf("recover -verify accepted the wrong catalogs:\n%s", out)
	}
	if !strings.Contains(err.Error(), "verification FAILED") {
		t.Errorf("unexpected failure shape: %v", err)
	}
}

// TestRecoverRequiresDataDir: the flag is mandatory. The error carries no
// "recover:" prefix of its own: main prints "stratrec recover: " before it.
// A negative demo count is refused by name before the scan, where it used
// to panic in the catalog generator.
func TestRecoverRequiresDataDir(t *testing.T) {
	_, err := capture(t, func() error { return runRecover(nil) })
	if err == nil {
		t.Fatal("recover without -data-dir succeeded")
	}
	if strings.HasPrefix(err.Error(), "recover:") {
		t.Fatalf("error %q repeats the prefix main prints", err)
	}
	out, err := capture(t, func() error {
		return runRecover([]string{"-data-dir", t.TempDir(), "-verify", "-demo-strategies", "-5"})
	})
	if err == nil || !strings.Contains(err.Error(), "-demo-strategies") || out != "" {
		t.Errorf("negative -demo-strategies: err = %v, output %q; want it refused by name before the scan", err, out)
	}
}
