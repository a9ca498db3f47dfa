// Package server hosts StratRec as a multi-tenant HTTP/JSON service: the
// online regime the paper frames — deployment requests arriving
// continuously, revocations, worker availability drifting — served at
// interactive latency from the warm ADPaR index of PR 1.
//
// Each tenant is a named strategy catalog with its own stream.Manager.
// Because the manager is not goroutine-safe, every tenant runs a
// single-writer event loop fed by a channel: mutations serialize per
// tenant with no global lock, tenants never contend with each other, and
// read traffic (plan queries, ADPaR alternatives) is served lock-free from
// an atomically swapped immutable stream.View plus the tenant's shared
// warm adpar.Index. Shutdown is graceful: the HTTP layer drains in-flight
// requests before the event loops stop.
//
// The typed Go client for this API lives in internal/client. The
// benchmark that loads a live server and measures it end to end, layer
// by layer, is stratbench (see stratbench/README.md).
package server

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config configures a Server: one TenantConfig per hosted tenant name.
type Config struct {
	Tenants map[string]TenantConfig
	// Now is the server's clock, consulted for the start time and uptime
	// metrics. Nil defaults to time.Now. Deterministic harnesses
	// (internal/conformance) and tests inject a fixed or stepped clock so
	// time-derived observables are reproducible. It must be safe for
	// concurrent use: tenants build concurrently, and their loops read it.
	Now func() time.Time

	// DataDir enables durability when non-empty: each tenant keeps a
	// write-ahead log and snapshot checkpoints under DataDir/<tenant>
	// (internal/wal), recovered on New before the tenant's event loop
	// starts. Tenant names must then be usable as directory names.
	DataDir string
	// CheckpointEvery auto-checkpoints a tenant (snapshot + WAL
	// truncation) after this many records appended since the last
	// checkpoint. 0 means checkpoints happen only via POST
	// /admin/checkpoint.
	CheckpointEvery int
	// WALGroupCommitWindow caps how long the server-wide commit
	// scheduler, which fsyncs every durable tenant's WAL, holds a round
	// open for tenant loops that are mid-cycle and may still ask to
	// commit; a round never waits for an idle loop. 0 commits each batch
	// as soon as it is appended, and no measured workload commits faster
	// at a nonzero window: each log is its own file, so a shared round
	// shares the wait, never an fsync. At any window every mutation is
	// fsynced before it is acknowledged.
	WALGroupCommitWindow time.Duration

	// Parallelism caps the ADPaR sweep workers of every tenant, those
	// CreateTenant adds included (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
	// ADPaRWorkers caps concurrently running ADPaR alternative solves
	// across all tenants (0 = GOMAXPROCS). The pool is server-wide
	// because the solves contend for the same CPUs regardless of tenant.
	ADPaRWorkers int
	// ADPaRQueue bounds how many alternative queries may wait for a pool
	// worker before new ones are shed with 429 (0 = 2×workers).
	ADPaRQueue int
	// MutationDeadline is the default deadline applied to every mutation
	// that arrives without an explicit X-Request-Deadline-Ms header. 0
	// means no default: such mutations only shed on a full inbox, never
	// on projected wait.
	MutationDeadline time.Duration

	// Logger receives the server's structured events (admit, shed, apply,
	// append, commit, publish, reply, checkpoint, recovery, admin), each
	// stamped with the op's trace ID. Nil disables logging (a discard
	// handler; hot paths then skip attribute construction entirely).
	// Terminal per-op events (reply, shed) are Info/Warn; per-stage
	// progress events are Debug.
	Logger *slog.Logger
}

// ErrUnknownTenant reports a request for a tenant the server does not
// host.
var ErrUnknownTenant = errors.New("server: unknown tenant")

// ErrNoDurability reports a checkpoint request against a server running
// without a data directory.
var ErrNoDurability = errors.New("server: durability disabled (no data dir)")

// Server is a multi-tenant StratRec recommendation service. Create one
// with New, expose Handler over any net/http server, and Close it to stop
// the tenant event loops (after the HTTP layer has drained).
type Server struct {
	// mu guards tenants and names: the registry is mutable at runtime
	// via CreateTenant / DrainTenant. Request paths take the read lock
	// once per request (Tenant lookup); admin operations take the write
	// lock.
	mu      sync.RWMutex
	tenants map[string]*Tenant
	names   []string // sorted, for deterministic listings

	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the trace middleware
	vars    *expvar.Map
	// tenantVars is the "tenants" submap of the expvar tree; runtime
	// tenant admin adds and removes entries (expvar.Map is
	// concurrency-safe).
	tenantVars *expvar.Map
	now        func() time.Time
	start      time.Time
	dataDir    string
	// dur carries the WAL settings runtime-created tenants inherit.
	dur  durability
	pool *queryPool
	// parallelism is Config.Parallelism, which every tenant inherits.
	parallelism int
	// gc is the cross-tenant commit scheduler (nil unless durability is
	// on).
	gc *groupCommitter
	// mutDeadline is Config.MutationDeadline (0 = none).
	mutDeadline time.Duration
	// log is the structured logger (never nil; discard by default).
	log *slog.Logger

	closeOnce sync.Once
}

// New builds the server and starts one event loop per tenant. Tenants
// build concurrently on at most GOMAXPROCS workers — each owns its
// directory, WAL, manager and index, so recovering one never waits on
// another — and register in sorted name order. If any tenant fails to
// build, New closes every tenant that did, so no directory lock stays
// held, and returns the error of the first failing tenant in sorted
// order.
func New(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("server: no tenants configured")
	}
	// Each of these reads 0 as its default, so a negative value would
	// silently mean the default: a negative CheckpointEvery turns
	// auto-checkpointing off and lets the WAL grow without bound, and a
	// negative Parallelism sweeps sequentially.
	switch {
	case cfg.Parallelism < 0:
		return nil, fmt.Errorf("server: negative Parallelism %d", cfg.Parallelism)
	case cfg.CheckpointEvery < 0:
		return nil, fmt.Errorf("server: negative CheckpointEvery %d", cfg.CheckpointEvery)
	case cfg.MutationDeadline < 0:
		return nil, fmt.Errorf("server: negative MutationDeadline %v", cfg.MutationDeadline)
	case cfg.ADPaRWorkers < 0:
		return nil, fmt.Errorf("server: negative ADPaRWorkers %d", cfg.ADPaRWorkers)
	case cfg.ADPaRQueue < 0:
		return nil, fmt.Errorf("server: negative ADPaRQueue %d", cfg.ADPaRQueue)
	}
	now := cfg.Now
	if now == nil {
		now = defaultClock()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = discardLogger()
	}
	s := &Server{
		tenants:     make(map[string]*Tenant, len(cfg.Tenants)),
		now:         now,
		start:       now(),
		dataDir:     cfg.DataDir,
		pool:        newQueryPool(cfg.ADPaRWorkers, cfg.ADPaRQueue, now),
		parallelism: cfg.Parallelism,
		mutDeadline: cfg.MutationDeadline,
		log:         logger,
	}
	if cfg.DataDir != "" {
		s.gc = newGroupCommitter(cfg.WALGroupCommitWindow)
	}
	s.dur = durability{
		dataDir:         cfg.DataDir,
		checkpointEvery: cfg.CheckpointEvery,
		gc:              s.gc,
	}
	names := make([]string, 0, len(cfg.Tenants))
	for name := range cfg.Tenants {
		if cfg.DataDir != "" {
			if err := validateTenantDirName(name); err != nil {
				return nil, err
			}
		}
		names = append(names, name)
	}
	sort.Strings(names)
	built := make([]*Tenant, len(names))
	errs := make([]error, len(names))
	next := make(chan int)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(names)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				built[i], errs[i] = newTenant(names[i], cfg.Tenants[names[i]], s.dur, s.pool, s.parallelism, s.log, s.now)
			}
		}()
	}
	for i := range names {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, name := range names {
		if built[i] != nil {
			s.tenants[name] = built[i]
			s.names = append(s.names, name)
		}
	}
	for _, err := range errs {
		if err != nil {
			s.Close()
			return nil, err
		}
	}
	s.vars, s.tenantVars = newMetricsRoot(s)
	s.mux = s.routes()
	s.handler = traceMiddleware(s.mux)
	return s, nil
}

// validateTenantDirName rejects tenant names that cannot double as a
// directory name under DataDir.
func validateTenantDirName(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return fmt.Errorf("server: tenant name %q is not usable as a data directory name", name)
	}
	return nil
}

// Handler returns the server's HTTP handler: the routed mux wrapped in
// the trace middleware, so every response — sheds included — carries an
// X-Trace-Id. See api.go for the routes.
func (s *Server) Handler() http.Handler { return s.handler }

// Tenant returns a hosted tenant by name.
func (s *Server) Tenant(name string) (*Tenant, error) {
	s.mu.RLock()
	t, ok := s.tenants[name]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrUnknownTenant
	}
	return t, nil
}

// TenantNames lists hosted tenants in sorted order.
func (s *Server) TenantNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// ErrDuplicateTenant reports a CreateTenant against a name already
// hosted.
var ErrDuplicateTenant = errors.New("server: tenant already exists")

// CreateTenant adds a tenant at runtime: its event loop starts, its WAL
// opens under the server's data directory (recovering any state a
// previously drained or crashed tenant of the same name left behind),
// and its routes and metrics go live immediately — {tenant} path values
// resolve against the registry per request, so no mux change is needed.
func (s *Server) CreateTenant(name string, cfg TenantConfig) error {
	if s.dataDir != "" {
		if err := validateTenantDirName(name); err != nil {
			return err
		}
	}
	s.mu.RLock()
	_, exists := s.tenants[name]
	s.mu.RUnlock()
	if exists {
		return fmt.Errorf("%w: %s", ErrDuplicateTenant, name)
	}
	// Build outside the lock — index compilation and WAL recovery can
	// take a while, and requests to existing tenants must not stall.
	t, err := newTenant(name, cfg, s.dur, s.pool, s.parallelism, s.log, s.now)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if _, exists := s.tenants[name]; exists {
		s.mu.Unlock()
		t.close()
		return fmt.Errorf("%w: %s", ErrDuplicateTenant, name)
	}
	s.tenants[name] = t
	s.names = append(s.names, name)
	sort.Strings(s.names)
	s.mu.Unlock()
	s.tenantVars.Set(name, t.met.vars) //lint:allow metricname -- tenant names are validated directory-safe labels, rendered as label values not metric names
	s.log.LogAttrs(context.Background(), slog.LevelInfo, evCreate,
		slog.String("tenant", name),
		slog.Int("strategies", t.ix.Len()))
	return nil
}

// DrainTenant removes a tenant at runtime: new writes are rejected with
// 503 (ErrTenantClosed — same promise as shutdown: never applied, never
// logged), a final checkpoint freezes the durable state, the event loop
// stops, and the tenant detaches from the registry (subsequent requests
// 404). Reads keep serving the last snapshot until detach. The returned
// CheckpointInfo describes the final checkpoint; with durability off it
// is zero and the drain still completes.
func (s *Server) DrainTenant(name string) (CheckpointInfo, error) {
	s.mu.RLock()
	t, ok := s.tenants[name]
	s.mu.RUnlock()
	if !ok {
		return CheckpointInfo{}, ErrUnknownTenant
	}
	t.draining.Store(true)
	// Final checkpoint through the loop (admin ops bypass the draining
	// gate): the WAL truncates to one snapshot, so the eventual restart
	// — or a CreateTenant of the same name — recovers instantly.
	info, err := t.Checkpoint()
	if err != nil && (errors.Is(err, ErrNoDurability) || errors.Is(err, ErrTenantClosed)) {
		// No WAL to checkpoint, or the loop is already stopping — the
		// drain itself still proceeds.
		err = nil
	}
	t.close()
	s.mu.Lock()
	delete(s.tenants, name)
	for i, n := range s.names {
		if n == name {
			s.names = append(s.names[:i], s.names[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.tenantVars.Delete(name)
	s.log.LogAttrs(context.Background(), slog.LevelInfo, evDrain,
		slog.String("tenant", name),
		slog.Uint64("checkpoint_seq", info.LastSeq),
		slog.Int("checkpoint_requests", info.Requests))
	return info, err
}

// Close stops every tenant event loop and waits for them to exit. Call it
// after the HTTP server has drained (http.Server.Shutdown or
// httptest.Server.Close), so no handler is left mid-flight; requests
// racing the shutdown fail with ErrTenantClosed (503). Close is
// idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.RLock()
		tenants := make([]*Tenant, 0, len(s.tenants))
		for _, t := range s.tenants {
			tenants = append(tenants, t)
		}
		s.mu.RUnlock()
		var wg sync.WaitGroup
		for _, t := range tenants {
			wg.Add(1)
			go func(t *Tenant) {
				defer wg.Done()
				t.close()
			}(t)
		}
		wg.Wait()
		// Stop the commit scheduler only after every tenant loop has
		// exited: loops may be blocked in a commit round right up to the
		// end, and a stopped scheduler would force them onto the
		// direct-sync fallback one by one.
		if s.gc != nil {
			s.gc.stop()
		}
	})
}

// ListenAndServe runs the server on addr until ctx is cancelled, then
// shuts down gracefully: in-flight HTTP requests get drainTimeout to
// finish before the tenant loops stop.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	hs := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := hs.Shutdown(shutdownCtx)
	s.Close()
	return err
}
