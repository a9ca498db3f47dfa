package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"stratrec/internal/conformance"
)

// TestConformClean: a small seeded conformance run completes with zero
// divergences through the CLI entry point.
func TestConformClean(t *testing.T) {
	out, err := capture(t, func() error {
		return runConform([]string{"-seed", "1", "-events", "800", "-quiet"})
	})
	if err != nil {
		t.Fatalf("conform: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 divergences") {
		t.Errorf("output missing divergence summary:\n%s", out)
	}
}

// TestConformProfilesAndReplay: generation writes a trace artifact with
// -out, and -replay runs the identical scenario from it.
func TestConformProfilesAndReplay(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	out, err := capture(t, func() error {
		return runConform([]string{
			"-seed", "9", "-events", "300", "-profile", "bursty",
			"-out", trace, "-quiet",
		})
	})
	if err != nil {
		t.Fatalf("conform bursty: %v\n%s", err, out)
	}
	out, err = capture(t, func() error {
		return runConform([]string{"-replay", trace, "-quiet"})
	})
	if err != nil {
		t.Fatalf("conform replay: %v\n%s", err, out)
	}
	if !strings.Contains(out, "replaying") || !strings.Contains(out, "0 divergences") {
		t.Errorf("replay output unexpected:\n%s", out)
	}
}

// TestConformCrashRecoveryReplay: crash-recovery replays a trace
// artifact written with -out instead of generating a fresh trace, and
// kills at the same event, since the kill point derives from the trace's
// seed.
func TestConformCrashRecoveryReplay(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	out, err := capture(t, func() error {
		return runConform([]string{
			"-profile", "crash-recovery", "-seed", "3", "-events", "400",
			"-out", trace, "-quiet",
		})
	})
	if err != nil {
		t.Fatalf("conform crash-recovery -out: %v\n%s", err, out)
	}
	killedAt := regexp.MustCompile(`killed at event \d+ \(checkpoint after -?\d+\)`)
	want := killedAt.FindString(out)
	if want == "" {
		t.Fatalf("no kill report:\n%s", out)
	}

	out, err = capture(t, func() error {
		return runConform([]string{
			"-profile", "crash-recovery", "-replay", trace,
			"-data-dir", filepath.Join(dir, "data"), "-quiet",
		})
	})
	if err != nil {
		t.Fatalf("conform crash-recovery -replay: %v\n%s", err, out)
	}
	if got := killedAt.FindString(out); got != want {
		t.Errorf("replay reported %q, the generating run %q", got, want)
	}
	for _, want := range []string{"replaying " + trace, "conformance: 400 events", "0 divergences"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}
}

// TestConformRejectsBadFlags: oracle limits and unknown profiles fail fast
// instead of running an uncheckable scenario.
func TestConformRejectsBadFlags(t *testing.T) {
	if _, err := capture(t, func() error {
		return runConform([]string{"-strategies", "40"})
	}); err == nil {
		t.Error("strategies above the brute-force bound accepted")
	}
	if _, err := capture(t, func() error {
		return runConform([]string{"-replay", filepath.Join(t.TempDir(), "missing.json")})
	}); err == nil {
		t.Error("missing replay file accepted")
	}
	if _, err := capture(t, func() error {
		return runConform([]string{"-events", "10", "-profile", "revokestorm"})
	}); err == nil {
		t.Error("typo'd profile accepted instead of failing fast")
	}
	// Counts the generator or the overload oracle would silently read as
	// their defaults are refused by name before anything runs.
	for _, args := range [][]string{
		{"-tenants", "-1"},
		{"-tenants", "0"},
		{"-strategies", "-5"},
		{"-k", "-2"},
		{"-overload-workers", "-3", "-profile", "avail-flap"},
		{"-overload-ops", "-2", "-profile", "avail-flap"},
		{"-overload-op-buffer", "-1", "-profile", "avail-flap"},
		{"-overload-deadline-ms", "-1", "-profile", "avail-flap"},
	} {
		out, err := capture(t, func() error { return runConform(args) })
		if err == nil || !strings.Contains(err.Error(), args[0]+" must be at least") || out != "" {
			t.Errorf("conform %v: err = %v, output %q; want it refused by name before any work", args, err, out)
		}
	}
}

// TestConformArtifactRoundTrip: an artifact written by the trace writer is
// readable by the replay path (the two halves of the failure workflow).
func TestConformArtifactRoundTrip(t *testing.T) {
	tr, err := conformance.Generate(conformance.GenConfig{Seed: 2, Events: 50})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := writeTraceFile(path, tr); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := conformance.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("artifact changed length: %d -> %d", len(tr.Events), len(got.Events))
	}
}
