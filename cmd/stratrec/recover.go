package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"stratrec/internal/server"
	"stratrec/internal/wal"
)

// runRecover implements `stratrec recover`: offline inspection and
// verification of a durability directory written by `stratrec serve
// -data-dir`.
//
//	stratrec recover -data-dir d                  # read-only scan per tenant
//	stratrec recover -data-dir d -verify [flags]  # replay through the real engine
//
// The plain scan never modifies the directory: it reports each tenant's
// newest checkpoint, replay tail, last durable sequence number and any
// torn tail. With -verify the tenant catalogs are materialized (the same
// -tenants / demo flags `serve` uses — recovery is only meaningful
// against the catalogs the log was written under), the full recovery
// path runs (checkpoint re-admission + tail replay inside server.New,
// before the tenant event loops start, with the per-record epoch trail
// and requirement fingerprints verified), and the recovered plan is
// printed. -verify opens the logs exactly like serve:
// a torn tail is repaired (truncated) on open.
func runRecover(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ContinueOnError)
	var (
		dataDir     = fs.String("data-dir", "", "durability root written by stratrec serve -data-dir (required)")
		verify      = fs.Bool("verify", false, "replay the recovered state through the real engine and verify the epoch trail")
		tenantsPath = fs.String("tenants", "", "verify: multi-tenant catalog JSON (same file serve ran with)")
		objective   = fs.String("objective", "throughput", "verify: platform goal: throughput or payoff")
		mode        = fs.String("mode", "max", "verify: workforce aggregation: sum or max")
		demoTenants = fs.Int("demo-tenants", 2, "verify: synthetic tenant count when -tenants is empty")
		demoSize    = fs.Int("demo-strategies", 64, "verify: strategies per synthetic tenant")
		seed        = fs.Int64("seed", 2020, "verify: synthetic tenant seed (must match serve's)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("-data-dir is required")
	}
	cf := catalogFlags{
		objective:   *objective,
		mode:        *mode,
		tenantsPath: *tenantsPath,
		demoTenants: *demoTenants,
		demoSize:    *demoSize,
		seed:        *seed,
	}
	if err := cf.validate(); err != nil {
		return err
	}

	names, err := tenantDirs(*dataDir)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("no tenant directories under %s", *dataDir)
	}

	fmt.Printf("recover: %d tenant(s) under %s\n", len(names), *dataDir)
	for _, name := range names {
		rec, err := wal.Scan(filepath.Join(*dataDir, name))
		if err != nil {
			return fmt.Errorf("tenant %s: %w", name, err)
		}
		fmt.Printf("  %s: ", name)
		if cp := rec.Checkpoint; cp != nil {
			fmt.Printf("checkpoint seq %d (epoch %d, %d open, W %.3f), ", cp.Seq, cp.Epoch, len(cp.Requests), cp.Availability)
		} else {
			fmt.Printf("no checkpoint, ")
		}
		fmt.Printf("%d tail record(s) in %d segment(s), last seq %d", len(rec.Tail), rec.Segments, rec.LastSeq)
		if rec.TornBytes > 0 {
			fmt.Printf(", torn tail: %d byte(s) will be truncated on open", rec.TornBytes)
		}
		fmt.Println()
	}
	if !*verify {
		return nil
	}

	cfg, err := buildServerConfig(cf)
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, ok := cfg.Tenants[name]; !ok {
			return fmt.Errorf("tenant %s exists on disk but not in the given catalogs; pass the same -tenants/-seed flags serve ran with", name)
		}
	}
	// Verify only what is on disk: catalog tenants without a directory
	// would otherwise get fresh (empty) WALs created inside the artifact
	// being inspected, and be reported as "recovered" with no history.
	onDisk := make(map[string]bool, len(names))
	for _, name := range names {
		onDisk[name] = true
	}
	for name := range cfg.Tenants {
		if !onDisk[name] {
			fmt.Printf("recover: catalog tenant %s has no data on disk; skipping it\n", name)
			delete(cfg.Tenants, name)
		}
	}
	cfg.DataDir = *dataDir

	// server.New runs the full recovery path and fails loudly on any
	// epoch-trail divergence or replay error.
	start := time.Now()
	s, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("verification FAILED: %w", err)
	}
	took := time.Since(start)
	defer s.Close()

	fmt.Printf("recover: verification OK in %v\n", took)
	for _, name := range s.TenantNames() {
		t, err := s.Tenant(name)
		if err != nil {
			return err
		}
		snap := t.Snapshot()
		fmt.Printf("  %s: epoch %d, W %.3f, %d open (%d serving, %d displaced), objective %.3f\n",
			name, snap.Epoch, snap.Availability,
			len(snap.Requests), len(snap.Plan.Serving), len(snap.Plan.Displaced), snap.Plan.Objective)
	}
	return nil
}

// tenantDirs lists the tenant subdirectories of a durability root.
func tenantDirs(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
