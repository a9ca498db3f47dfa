package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stratrec/internal/batch"
	"stratrec/internal/linmodel"
	"stratrec/internal/server"
	"stratrec/internal/store"
	"stratrec/internal/strategy"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// runServe implements `stratrec serve`: a multi-tenant recommendation
// server over the catalogs of a tenants file (or synthetic demo tenants)
// that listens until SIGINT or SIGTERM, then drains and stops.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		tenantsPath = fs.String("tenants", "", "multi-tenant catalog JSON ({\"tenants\": {name: catalog}}); empty hosts synthetic demo tenants")
		objective   = fs.String("objective", "throughput", "platform goal: throughput or payoff")
		mode        = fs.String("mode", "max", "workforce aggregation: sum or max")
		adparPar    = fs.Int("adpar-parallelism", 0, "ADPaR sweep workers: 0 auto (GOMAXPROCS), 1 sequential")
		coalesce    = fs.Int("coalesce", 0, "max queued mutations a tenant loop applies per replan cycle (0 = default 32, 1 = no coalescing)")
		opBuffer    = fs.Int("op-buffer", 0, "per-tenant mutation inbox capacity; beyond it new mutations are shed with 429 (0 = default 64)")
		adparWork   = fs.Int("adpar-workers", 0, "server-wide ADPaR alternative-query pool workers (0 = GOMAXPROCS)")
		adparQueue  = fs.Int("adpar-queue", 0, "alternative queries that may wait for a pool worker before shedding 429 (0 = 2x workers)")
		mutDeadline = fs.Duration("mutation-deadline", 0, "default mutation deadline when no X-Request-Deadline-Ms header is sent; 0 disables projected-wait shedding for headerless mutations")
		logFormat   = fs.String("log", "off", "structured operation log on stderr: json, text, or off")
		logLevel    = fs.String("log-level", "info", "structured log threshold: debug (per-op admit/apply/append/commit/publish), info (terminal reply/shed + lifecycle), warn (sheds only)")
		demoTenants = fs.Int("demo-tenants", 2, "synthetic tenant count when -tenants is empty")
		demoSize    = fs.Int("demo-strategies", 64, "strategies per synthetic tenant")
		seed        = fs.Int64("seed", 2020, "synthetic demo tenant seed")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")

		dataDir   = fs.String("data-dir", "", "durability root: per-tenant write-ahead log + checkpoints, recovered on startup; empty disables durability")
		gcWindow  = fs.Duration("wal-group-commit-window", 0, "WAL commit window: the longest a commit round waits for tenant loops still mid-cycle, never for an idle loop; 0 (recommended) commits each batch as soon as it is appended")
		ckptEvery = fs.Int("checkpoint-every", 10000, "auto-checkpoint a tenant after n WAL records since the last checkpoint (0 = only via POST /admin/checkpoint)")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
	cfg, err := buildServerConfig(cf)
	if err != nil {
		return err
	}
	cfg.Parallelism = *adparPar
	cfg.DataDir = *dataDir
	cfg.WALGroupCommitWindow = *gcWindow
	cfg.CheckpointEvery = *ckptEvery
	cfg.ADPaRWorkers = *adparWork
	cfg.ADPaRQueue = *adparQueue
	cfg.MutationDeadline = *mutDeadline
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}
	cfg.Logger = logger
	for name, tc := range cfg.Tenants {
		tc.Coalesce = *coalesce
		tc.OpBuffer = *opBuffer
		cfg.Tenants[name] = tc
	}

	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		fmt.Printf("stratrec serve: durability on under %s (commit window %v, checkpoint every %d)\n",
			*dataDir, *gcWindow, *ckptEvery)
	}

	fmt.Printf("stratrec serve: %d tenants on %s\n", len(s.TenantNames()), *addr)
	for _, name := range s.TenantNames() {
		fmt.Printf("  /v1/tenants/%s\n", name)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.ListenAndServe(ctx, *addr, *drain); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// buildLogger maps the -log/-log-level flags onto a slog.Logger for
// server.Config.Logger. Logs go to stderr — stdout stays reserved for
// the human-readable startup banner.
func buildLogger(format, level string) (*slog.Logger, error) {
	if format == "off" || format == "" {
		return nil, nil
	}
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info or warn)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want json, text or off)", format)
	}
}

// catalogFlags is the tenant-universe selection shared by `serve` and
// `recover -verify`: either a tenants file or seeded synthetic demo
// catalogs. Recovery can only replay a WAL against the same catalogs the
// writing server ran with, so both subcommands accept identical flags.
type catalogFlags struct {
	objective   string
	mode        string
	tenantsPath string
	demoTenants int
	demoSize    int
	seed        int64
}

// validate refuses demo counts below one, which the synthetic catalog
// generator cannot honour.
func (cf catalogFlags) validate() error {
	return atLeast(
		intFlag{"demo-tenants", cf.demoTenants, 1},
		intFlag{"demo-strategies", cf.demoSize, 1},
	)
}

// buildServerConfig materializes the tenant universe of the given flags.
func buildServerConfig(cf catalogFlags) (server.Config, error) {
	var obj batch.Objective
	switch cf.objective {
	case "throughput":
		obj = batch.Throughput
	case "payoff":
		obj = batch.Payoff
	default:
		return server.Config{}, fmt.Errorf("unknown objective %q", cf.objective)
	}
	var agg workforce.Mode
	switch cf.mode {
	case "sum":
		agg = workforce.SumCase
	case "max":
		agg = workforce.MaxCase
	default:
		return server.Config{}, fmt.Errorf("unknown mode %q", cf.mode)
	}

	cfg := server.Config{Tenants: map[string]server.TenantConfig{}}
	if cf.tenantsPath != "" {
		tenants, err := store.LoadTenants(cf.tenantsPath)
		if err != nil {
			return server.Config{}, err
		}
		for _, name := range tenants.Names() {
			cat := tenants.Tenants[name]
			set, models, err := cat.Materialize(func(e store.Entry) linmodel.ParamModels {
				return anchoredModels(e.Params, cat.Workforce)
			})
			if err != nil {
				return server.Config{}, fmt.Errorf("tenant %s: %w", name, err)
			}
			cfg.Tenants[name] = server.TenantConfig{
				Set: set, Models: models,
				Mode: agg, Objective: obj,
				InitialW: cat.Workforce,
			}
		}
	} else {
		gen := synth.DefaultConfig(synth.Uniform)
		for i := 0; i < cf.demoTenants; i++ {
			rng := rand.New(rand.NewSource(cf.seed + int64(i)))
			set := gen.Strategies(rng, cf.demoSize)
			name := fmt.Sprintf("tenant-%d", i+1)
			cfg.Tenants[name] = server.TenantConfig{
				Set: set, Models: gen.Models(rng, set),
				Mode: agg, Objective: obj,
				InitialW: 0.7,
			}
		}
	}
	return cfg, nil
}

// anchoredModels is the Section 3.1 default for catalog entries without
// fitted models, shared with the server's runtime tenant-admin endpoint
// via store.AnchoredModels so both materialization paths agree.
func anchoredModels(p strategy.Params, W float64) linmodel.ParamModels {
	return store.AnchoredModels(p, W)
}
