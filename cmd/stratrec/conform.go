package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stratrec/internal/adpar"
	"stratrec/internal/conformance"
)

// runConform implements `stratrec conform`: the end-to-end differential
// conformance harness as a subcommand, so CI gates and humans chasing a
// failure run exactly the same binary.
//
//	stratrec conform -seed 1 -events 5000            # generate + verify
//	stratrec conform -replay failure.json            # replay an artifact
//	stratrec conform -seed 7 -profile revoke-storm   # chaos schedule
//	stratrec conform -profile crash-recovery         # kill/restart oracle
//	stratrec conform -profile thundering-herd        # overload shed oracle
//
// On divergence the failing trace is minimized with delta debugging and
// written to -artifact as replayable JSON, and the exit status is nonzero.
//
// The crash-recovery profile replays a steady trace through a durable
// server, kills it at a seeded mid-trace point (after a mid-run
// checkpoint), restarts it from disk, diffs the recovered snapshot
// field-by-field against the naive full-replay oracle, and finishes the
// trace with the full oracle layer. Its failure artifact is the trace
// plus the data directory itself (kept in place, path printed), not a
// minimized trace: the failure depends on the kill point, which ddmin
// event deletion does not preserve.
//
// The overload profiles (thundering-herd, revoke-storm-shed, avail-flap)
// run the chaos shed-accounting oracle instead: concurrent writers
// through the real HTTP stack with fault injection forcing admission
// control to shed, then kill + restart, then exactly-once verification
// (every 2xx ack recovered, every 429/503 shed absent). Their failure
// artifact is the accounting ledger JSON plus the kept data directory.
func runConform(args []string) error {
	fs := flag.NewFlagSet("conform", flag.ContinueOnError)
	var (
		seed       = fs.Int64("seed", 1, "trace generation seed")
		events     = fs.Int("events", 5000, "total trace events (mutations + oracle checks)")
		tenants    = fs.Int("tenants", 2, "tenant count (objectives/modes cycle per tenant)")
		strategies = fs.Int("strategies", 24, "strategies per tenant catalog (max 32: the brute-force oracle bound)")
		k          = fs.Int("k", 3, "per-request cardinality constraint")
		profile    = fs.String("profile", "steady", "chaos schedule: steady, revoke-storm, bursty, crash-recovery, thundering-herd, revoke-storm-shed or avail-flap")
		market     = fs.Bool("market", false, "derive availability drift from simulated marketplace outcomes")
		bbLimit    = fs.Int("branch-bound-limit", 48, "max open items for the exact optimality oracle (-1 disables)")
		adparPar   = fs.Int("adpar-parallelism", 0, "server ADPaR sweep workers: 0 auto, 1 sequential")
		replayPath = fs.String("replay", "", "replay a trace artifact instead of generating")
		outPath    = fs.String("out", "", "also write the generated trace to this path")
		artifact   = fs.String("artifact", "conformance-failure.json", "where to write the minimized failing trace")
		maxProbes  = fs.Int("minimize-probes", 600, "delta-debugging probe budget")
		quiet      = fs.Bool("quiet", false, "suppress the progress line")
		viaBatch   = fs.Bool("via-batch", false, "route every mutation through POST /v1/tenants/{tenant}/ops as a one-op batch (steady/chaos and crash-recovery profiles)")
		gcWindow   = fs.Duration("wal-group-commit-window", 0, "crash-recovery and overload profiles: the server's WAL commit window (0 = commit each batch as soon as it is appended)")

		crashCut  = fs.Int("crash-cut", -1, "crash-recovery: event index to kill at (-1 = seeded mid-trace point)")
		crashDir  = fs.String("crash-data-dir", "", "crash-recovery: durability dir (empty = temp dir; kept on failure either way)")
		crashTorn = fs.Bool("crash-torn-tail", false, "crash-recovery: also inject a torn partial record at the kill point")

		ovWorkers  = fs.Int("overload-workers", 0, "overload profiles: concurrent writer goroutines (0 = 8)")
		ovOps      = fs.Int("overload-ops", 0, "overload profiles: mutations per writer (0 = 60)")
		ovBuffer   = fs.Int("overload-op-buffer", 0, "overload profiles: tenant inbox capacity (0 = 4, deliberately smaller than the writer count)")
		ovDeadline = fs.Int("overload-deadline-ms", 10, "overload profiles: X-Request-Deadline-Ms attached to every third mutation (0 disables)")
		ovDir      = fs.String("overload-data-dir", "", "overload profiles: durability dir (empty = temp dir; kept on violation either way)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, p := range conformance.OverloadProfiles {
		if *profile == string(p) {
			return runConformOverload(p, overloadArgs{
				seed: *seed, strategies: *strategies,
				workers: *ovWorkers, ops: *ovOps, opBuffer: *ovBuffer,
				deadlineMs: *ovDeadline, dataDir: *ovDir, artifact: *artifact,
				gcWindow: *gcWindow,
			})
		}
	}
	if *profile == "crash-recovery" {
		return runConformCrash(crashArgs{
			seed: *seed, events: *events, tenants: *tenants, strategies: *strategies, k: *k,
			bbLimit: *bbLimit, adparPar: *adparPar, outPath: *outPath,
			cut: *crashCut, dataDir: *crashDir, tornTail: *crashTorn, quiet: *quiet,
			viaBatch: *viaBatch, gcWindow: *gcWindow,
		})
	}

	var (
		tr  conformance.Trace
		err error
	)
	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			return err
		}
		tr, err = conformance.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("conform: replaying %s (%d tenants, %d events)\n", *replayPath, len(tr.Tenants), len(tr.Events))
	} else {
		if *strategies > adpar.BruteForceLimit {
			return fmt.Errorf("conform: -strategies %d exceeds the brute-force oracle bound %d", *strategies, adpar.BruteForceLimit)
		}
		tr, err = conformance.Generate(conformance.GenConfig{
			Seed:           *seed,
			Events:         *events,
			Tenants:        *tenants,
			Strategies:     *strategies,
			K:              *k,
			Profile:        conformance.Profile(*profile),
			MarketFeedback: *market,
		})
		if err != nil {
			return err
		}
		fmt.Printf("conform: seed %d, %d tenants x %d strategies, %d events, profile %s\n",
			*seed, len(tr.Tenants), *strategies, len(tr.Events), *profile)
	}
	if *outPath != "" {
		if err := writeTraceFile(*outPath, tr); err != nil {
			return err
		}
	}

	cfg := conformance.RunConfig{
		Parallelism:      *adparPar,
		BranchBoundLimit: *bbLimit,
		ViaBatch:         *viaBatch,
	}
	if !*quiet {
		every := len(tr.Events) / 10
		if every > 0 {
			cfg.OnEvent = func(i int, _ conformance.Event) {
				if i%every == 0 && i > 0 {
					fmt.Printf("conform: %d/%d events\n", i, len(tr.Events))
				}
			}
		}
	}

	start := time.Now()
	res, err := conformance.Run(tr, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s  (%.1fs)\n", res, time.Since(start).Seconds())
	if res.OK() {
		return nil
	}

	fmt.Printf("conform: minimizing the failing trace (budget %d probes)...\n", *maxProbes)
	minimized, stats := conformance.Minimize(tr, cfg, *maxProbes)
	fmt.Printf("conform: minimized %d -> %d events in %d probes\n", stats.From, stats.To, stats.Probes)
	if err := writeTraceFile(*artifact, minimized); err != nil {
		return fmt.Errorf("writing artifact: %w", err)
	}
	fmt.Printf("conform: replayable artifact written to %s\n", *artifact)
	fmt.Printf("conform: replay it with: stratrec conform -replay %s\n", *artifact)
	return fmt.Errorf("conform: %d oracle divergences", len(res.Divergences))
}

// crashArgs carries the crash-recovery profile's knobs.
type crashArgs struct {
	seed                        int64
	events, tenants, strategies int
	k, bbLimit, adparPar        int
	cut                         int
	dataDir, outPath            string
	tornTail, quiet, viaBatch   bool
	gcWindow                    time.Duration
}

// runConformCrash runs the kill/restart differential oracle: generate a
// steady trace, kill the durable server mid-trace, recover from disk,
// diff, finish the trace.
func runConformCrash(a crashArgs) error {
	if a.strategies > adpar.BruteForceLimit {
		return fmt.Errorf("conform: -strategies %d exceeds the brute-force oracle bound %d", a.strategies, adpar.BruteForceLimit)
	}
	tr, err := conformance.Generate(conformance.GenConfig{
		Seed:       a.seed,
		Events:     a.events,
		Tenants:    a.tenants,
		Strategies: a.strategies,
		K:          a.k,
		Profile:    conformance.Steady,
	})
	if err != nil {
		return err
	}
	fmt.Printf("conform: crash-recovery, seed %d, %d tenants x %d strategies, %d events\n",
		a.seed, len(tr.Tenants), a.strategies, len(tr.Events))
	if a.outPath != "" {
		if err := writeTraceFile(a.outPath, tr); err != nil {
			return err
		}
	}

	cfg := conformance.CrashConfig{
		Parallelism:       a.adparPar,
		BranchBoundLimit:  a.bbLimit,
		Cut:               a.cut,
		CheckpointAt:      -1,
		TornTail:          a.tornTail,
		ViaBatch:          a.viaBatch,
		GroupCommitWindow: a.gcWindow,
		DataDir:           a.dataDir,
	}
	if !a.quiet {
		every := len(tr.Events) / 10
		if every > 0 {
			cfg.OnEvent = func(i int, _ conformance.Event) {
				if i%every == 0 && i > 0 {
					fmt.Printf("conform: %d/%d events\n", i, len(tr.Events))
				}
			}
		}
	}

	start := time.Now()
	res, err := conformance.RunCrash(tr, cfg)
	if err != nil {
		fmt.Printf("conform: data dir kept at %s\n", res.DataDir)
		return err
	}
	fmt.Printf("conform: killed at event %d (checkpoint after %d), recovery %v\n",
		res.Cut, res.CheckpointAt, res.RecoveryDuration)
	fmt.Printf("%s  (%.1fs)\n", res.Result, time.Since(start).Seconds())
	if res.OK() {
		return nil
	}
	fmt.Printf("conform: data dir kept at %s for inspection (stratrec recover -data-dir ...)\n", res.DataDir)
	return fmt.Errorf("conform: %d oracle divergences", len(res.Divergences))
}

// overloadArgs carries the overload-profile knobs.
type overloadArgs struct {
	seed                     int64
	strategies, workers, ops int
	opBuffer, deadlineMs     int
	dataDir, artifact        string
	gcWindow                 time.Duration
}

// runConformOverload runs the chaos shed-accounting oracle for one
// overload profile and writes the accounting ledger as the failure
// artifact.
func runConformOverload(profile conformance.OverloadProfile, a overloadArgs) error {
	fmt.Printf("conform: overload profile %s, seed %d\n", profile, a.seed)
	start := time.Now()
	res, err := conformance.RunOverload(conformance.OverloadConfig{
		Profile:           profile,
		Seed:              a.seed,
		Strategies:        a.strategies,
		Workers:           a.workers,
		OpsPerWorker:      a.ops,
		OpBuffer:          a.opBuffer,
		DeadlineMs:        a.deadlineMs,
		GroupCommitWindow: a.gcWindow,
		DataDir:           a.dataDir,
	})
	if err != nil {
		if res.DataDir != "" {
			fmt.Printf("conform: data dir kept at %s\n", res.DataDir)
		}
		return err
	}
	fmt.Printf("%s  (%.1fs)\n", res, time.Since(start).Seconds())
	if res.OK() {
		return nil
	}
	if err := res.WriteArtifact(a.artifact); err != nil {
		return fmt.Errorf("writing shed-accounting artifact: %w", err)
	}
	fmt.Printf("conform: shed-accounting ledger written to %s\n", a.artifact)
	fmt.Printf("conform: data dir kept at %s for inspection\n", res.DataDir)
	return fmt.Errorf("conform: %d shed-accounting violations", len(res.Violations))
}

func writeTraceFile(path string, tr conformance.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
