package server

import (
	"expvar"
	"io"
	"net/http"
	"time"

	"stratrec/internal/wal"
)

// tenantMetrics is one tenant's expvar surface: operation counters plus
// gauges read from the latest published view. The vars live in a per-server
// expvar.Map rather than the process-global expvar registry, so multiple
// servers (tests, embedded instances) never collide on variable names.
type tenantMetrics struct {
	submits, revokes, drifts expvar.Int
	planReads, alternatives  expvar.Int
	errors                   expvar.Int
	// batches counts event-loop replan cycles over live mutations;
	// batchedOps counts the mutations they applied, so
	// batchedOps/batches is the achieved coalescing factor.
	batches, batchedOps expvar.Int
	// ingestBatches counts POST /ops bodies that reached the enqueue
	// stage; ingestBatchOps the ops they carried (shed ones included —
	// they are answered per op, not rejected wholesale).
	ingestBatches, ingestBatchOps expvar.Int
	// Sheds by cause: a full inbox, a deadline the projected (or actual)
	// queue wait overshot, a closed or draining tenant, and a broken WAL.
	// The last two also count in errors.
	shedsQueueFull, shedsDeadline expvar.Int
	shedsClosed, shedsWALBroken   expvar.Int
	// Durability counters (present only when the tenant has a WAL).
	walErrors, checkpoints, checkpointErrors expvar.Int
	recoveredRequests, recoveredTail         expvar.Int
	recoveredCheckpointSeq, recoveryMillis   expvar.Int
	tornBytes                                expvar.Int
	vars                                     *expvar.Map
}

func newTenantMetrics(t *Tenant) *tenantMetrics {
	m := &tenantMetrics{vars: new(expvar.Map).Init()}
	m.vars.Set("submits", &m.submits)
	m.vars.Set("revokes", &m.revokes)
	m.vars.Set("availability_updates", &m.drifts)
	m.vars.Set("plan_reads", &m.planReads)
	m.vars.Set("alternatives", &m.alternatives)
	m.vars.Set("errors", &m.errors)
	m.vars.Set("coalesced_batches", &m.batches)
	m.vars.Set("coalesced_ops", &m.batchedOps)
	m.vars.Set("ingest_batches", &m.ingestBatches)
	m.vars.Set("ingest_batch_ops", &m.ingestBatchOps)
	m.vars.Set("sheds_queue_full", &m.shedsQueueFull)
	m.vars.Set("sheds_deadline", &m.shedsDeadline)
	m.vars.Set("sheds_closed", &m.shedsClosed)
	m.vars.Set("sheds_wal_broken", &m.shedsWALBroken)
	// Overload gauges: live inbox pressure and the batch-latency EWMA
	// behind wait projections and Retry-After estimates.
	m.vars.Set("queue_depth", expvar.Func(func() any { return len(t.ops) }))
	m.vars.Set("queue_capacity", expvar.Func(func() any { return cap(t.ops) }))
	m.vars.Set("batch_latency_us", expvar.Func(func() any {
		return t.batchLatency.get(0).Microseconds()
	}))
	m.vars.Set("read_only", expvar.Func(func() any { return t.readOnly.Load() }))
	// Gauges read the atomically published view, so they are safe from
	// any goroutine and always consistent with what /plan serves.
	m.vars.Set("epoch", expvar.Func(func() any { return t.view.Load().Epoch }))
	m.vars.Set("open_requests", expvar.Func(func() any { return t.view.Load().Open }))
	m.vars.Set("serving", expvar.Func(func() any { return t.view.Load().Serving }))
	m.vars.Set("availability", expvar.Func(func() any { return t.view.Load().Availability }))
	m.vars.Set("strategies", expvar.Func(func() any { return t.ix.Len() }))
	if t.wal != nil {
		w := new(expvar.Map).Init()
		// The wal.Log counters are atomics, safe to read from the metrics
		// handler while the loop goroutine appends.
		w.Set("appends", expvar.Func(func() any { return t.wal.Appends() }))
		w.Set("syncs", expvar.Func(func() any { return t.wal.Syncs() }))
		w.Set("last_seq", expvar.Func(func() any { return t.wal.LastSeq() }))
		w.Set("errors", &m.walErrors)
		w.Set("checkpoints", &m.checkpoints)
		w.Set("checkpoint_errors", &m.checkpointErrors)
		w.Set("recovered_checkpoint_requests", &m.recoveredRequests)
		w.Set("recovered_tail_records", &m.recoveredTail)
		w.Set("recovered_checkpoint_seq", &m.recoveredCheckpointSeq)
		w.Set("recovery_ms", &m.recoveryMillis)
		w.Set("torn_bytes_truncated", &m.tornBytes)
		m.vars.Set("wal", w)
	}
	return m
}

// noteRecovery records what startup recovery replayed and how long it
// took.
func (m *tenantMetrics) noteRecovery(rec wal.Recovered, d time.Duration) {
	if rec.Checkpoint != nil {
		m.recoveredRequests.Set(int64(len(rec.Checkpoint.Requests)))
		m.recoveredCheckpointSeq.Set(int64(rec.Checkpoint.Seq))
	}
	m.recoveredTail.Set(int64(len(rec.Tail)))
	m.recoveryMillis.Set(d.Milliseconds())
	m.tornBytes.Set(int64(rec.TornBytes))
}

// newMetricsRoot assembles the server-wide expvar tree. It also returns
// the "tenants" submap so runtime tenant admin can add and remove
// entries (expvar.Map is concurrency-safe).
func newMetricsRoot(s *Server) (*expvar.Map, *expvar.Map) {
	root := new(expvar.Map).Init()
	root.Set("uptime_seconds", expvar.Func(func() any {
		return s.now().Sub(s.start).Seconds()
	}))
	root.Set("tenant_count", expvar.Func(func() any {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return len(s.tenants)
	}))
	tenants := new(expvar.Map).Init()
	for name, t := range s.tenants {
		tenants.Set(name, t.met.vars) //lint:allow metricname -- tenant names are validated directory-safe labels, rendered as label values not metric names
	}
	root.Set("tenants", tenants)
	if p := s.pool; p != nil {
		pool := new(expvar.Map).Init()
		pool.Set("workers", expvar.Func(func() any { return cap(p.slots) }))
		pool.Set("busy", expvar.Func(func() any { return len(p.slots) }))
		pool.Set("queue_capacity", expvar.Func(func() any { return p.queueCap }))
		pool.Set("waiting", expvar.Func(func() any { return p.waiting.Load() }))
		pool.Set("sheds", expvar.Func(func() any { return p.sheds.Load() }))
		pool.Set("wait_us", expvar.Func(func() any { return p.waitEWMA.get(0).Microseconds() }))
		root.Set("adpar_pool", pool)
	}
	if gc := s.gc; gc != nil {
		g := new(expvar.Map).Init()
		g.Set("window_us", expvar.Func(func() any { return gc.window.Microseconds() }))
		g.Set("rounds", expvar.Func(func() any { return gc.rounds.Load() }))
		g.Set("commits", expvar.Func(func() any { return gc.commits.Load() }))
		g.Set("max_round", expvar.Func(func() any { return gc.maxRound.Load() }))
		g.Set("direct_syncs", expvar.Func(func() any { return gc.directSyncs.Load() }))
		root.Set("group_commit", g)
	}
	return root, tenants
}

// metricsHandler renders the metrics tree: expvar JSON by default
// (expvar.Map.String() is valid JSON, nested maps and Funcs included),
// Prometheus text format with ?format=prometheus.
func (s *Server) metricsHandler(w http.ResponseWriter, r *http.Request) {
	switch f := r.URL.Query().Get("format"); f {
	case "", "expvar", "json":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		io.WriteString(w, s.vars.String())
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writePrometheus(w)
	default:
		writeError(w, badRequest("unknown metrics format %q (want expvar or prometheus)", f))
	}
}
