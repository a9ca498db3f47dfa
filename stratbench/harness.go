package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"stratrec/internal/batch"
	"stratrec/internal/client"
	"stratrec/internal/server"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// tenantInput is everything one tenant receives, generated from the seed
// before any server exists.
type tenantInput struct {
	name    string
	cfg     server.TenantConfig
	prefill []synth.WorkloadEvent // submits only
	tail    []synth.WorkloadEvent // recover: mutations logged after the checkpoint
	events  []synth.WorkloadEvent // the measured phase
}

// genInputs builds both tenants' catalogs and event sequences. events is
// how many measured-phase events each tenant gets. The catalogs are the
// same for every seed: one catalog draw moves ADPaR solve costs more
// than the traffic does, and a run-to-run spread from the catalog alone
// would hide real changes. The seed drives all traffic.
func genInputs(w workload, seed int64, events int) ([]tenantInput, error) {
	gen := synth.DefaultConfig(synth.Uniform)
	out := make([]tenantInput, tenants)
	for i := range out {
		crng := rand.New(rand.NewSource(int64(i) + 1))
		set := gen.Strategies(crng, w.strategies)
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7919))
		ti := tenantInput{
			name: fmt.Sprintf("t%d", i),
			cfg: server.TenantConfig{
				Set: set, Models: gen.Models(crng, set),
				Mode: workforce.MaxCase, Objective: batch.Throughput,
				InitialW: initialW,
			},
		}
		if w.durable {
			ti.cfg.Coalesce, ti.cfg.OpBuffer = coalesce, opBuffer
		}
		var err error
		if ti.prefill, err = gen.Workload(rng, synth.WorkloadConfig{
			Events: w.prefill, K: requestK, TightFraction: w.tight, IDPrefix: "p",
		}); err != nil {
			return nil, err
		}
		mix := func(n int, rate float64, prefix string) ([]synth.WorkloadEvent, error) {
			return gen.Workload(rng, synth.WorkloadConfig{
				Events: n, K: requestK, Rate: rate,
				RevokeFraction: revokeFraction, DriftFraction: driftFraction,
				TightFraction: w.tight, IDPrefix: prefix,
			})
		}
		if w.recoverTail > 0 {
			if ti.tail, err = mix(w.recoverTail, 0, "r"); err != nil {
				return nil, err
			}
		}
		if ti.events, err = mix(events, w.rate, "e"); err != nil {
			return nil, err
		}
		out[i] = ti
	}
	return out, nil
}

// serverConfig is the server.Config a workload runs under, rooted at
// dataDir when the workload is durable.
func serverConfig(w workload, in []tenantInput, dataDir string) server.Config {
	cfg := server.Config{Tenants: map[string]server.TenantConfig{}}
	for _, ti := range in {
		cfg.Tenants[ti.name] = ti.cfg
	}
	if w.durable {
		cfg.DataDir = dataDir
		cfg.WALGroupCommitWindow = groupCommitWindow
		cfg.CheckpointEvery = checkpointEvery
	}
	return cfg
}

// liveServer is an in-process server behind a loopback listener, with
// the benchmark's one HTTP client (two keep-alive connections at most).
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	hc     *http.Client
	c      *client.Client
}

// startServer runs server.New and serves it on 127.0.0.1. The returned
// duration covers New through the listener being ready.
func startServer(cfg server.Config) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: tenants, MaxIdleConnsPerHost: tenants,
		}},
	}
	ls.c = client.New(ls.base, client.WithHTTPClient(ls.hc))
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, time.Since(t0), nil
}

// close drains HTTP, stops the tenant loops (flushing every WAL) and
// waits for the serve goroutine.
func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	ls.srv.Close()
	ls.hc.CloseIdleConnections()
	if serr := <-ls.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// batchOp converts one event into its /ops form.
func batchOp(ev synth.WorkloadEvent) client.BatchOp {
	switch ev.Kind {
	case synth.RevokeArrival:
		return client.BatchOp{Op: server.OpRevoke, ID: ev.RevokeID}
	case synth.DriftArrival:
		return client.BatchOp{Op: server.OpAvailability, Workforce: ev.Availability}
	}
	r := ev.Request
	return client.BatchOp{Op: server.OpSubmit, ID: r.ID, Quality: r.Quality, Cost: r.Cost, Latency: r.Latency, K: r.K}
}

// sendAll applies events through /ops bodies of size n, failing on any
// op that is not acknowledged. Used for untimed prefill and recovery
// preparation.
func sendAll(c *client.Client, tenant string, evs []synth.WorkloadEvent, n int) error {
	ops := make([]client.BatchOp, 0, n)
	for i, ev := range evs {
		ops = append(ops, batchOp(ev))
		if len(ops) < n && i < len(evs)-1 {
			continue
		}
		resp, err := c.SendOps(context.Background(), tenant, ops)
		if err != nil {
			return fmt.Errorf("prefill %s: %w", tenant, err)
		}
		for j, r := range resp.Results {
			if r.Status != http.StatusOK {
				return fmt.Errorf("prefill %s: op %s %s: status %d", tenant, ops[j].Op, ops[j].ID, r.Status)
			}
		}
		ops = ops[:0]
	}
	return nil
}

// prefillAll prefills the tenants one after the other, so set-up time
// does not depend on whether a second core happens to be free.
func prefillAll(c *client.Client, in []tenantInput, pick func(tenantInput) []synth.WorkloadEvent, n int) error {
	for _, ti := range in {
		if err := sendAll(c, ti.name, pick(ti), n); err != nil {
			return err
		}
	}
	return nil
}

// scrape reads the expvar JSON tree behind GET /v1/metrics.
func scrape(ls *liveServer) (map[string]any, error) {
	resp, err := ls.hc.Get(ls.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	return m, nil
}

// counter reads a dotted path ("tenants.t0.wal.appends") from a scrape;
// absent paths read 0.
func counter(m map[string]any, path string) float64 {
	var cur any = m
	for _, k := range strings.Split(path, ".") {
		mm, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = mm[k]
	}
	f, _ := cur.(float64)
	return f
}

// tenantSum adds one per-tenant counter over all tenants.
func tenantSum(m map[string]any, in []tenantInput, field string) float64 {
	var s float64
	for _, ti := range in {
		s += counter(m, "tenants."+ti.name+"."+field)
	}
	return s
}

// readMetric reads one runtime/metrics uint64 sample.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// liveHeap collects garbage and returns the bytes still reachable. The
// peak the runtime samples between collections depends on when marking
// happened to run; the live heap after a forced collection does not.
// The second collection empties the sync.Pool victim caches the first
// one only demoted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readMetric("/gc/heap/live:bytes")
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// copyDir copies a data dir (regular files only, lock files skipped).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if d.Name() == ".lock" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
