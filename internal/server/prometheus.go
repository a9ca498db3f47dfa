package server

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text-format rendering of the metrics tree (exposition
// format 0.0.4), served by GET /metrics?format=prometheus. The names
// below are a stable contract — CI parse-lints the endpoint and diffs
// against this vocabulary, so renames are breaking changes:
//
//	stratrec_uptime_seconds
//	stratrec_tenant_count
//	stratrec_submits_total{tenant}            stratrec_revokes_total{tenant}
//	stratrec_availability_updates_total{tenant}
//	stratrec_plan_reads_total{tenant}         stratrec_alternatives_total{tenant}
//	stratrec_errors_total{tenant}
//	stratrec_coalesced_batches_total{tenant}  stratrec_coalesced_ops_total{tenant}
//	stratrec_ingest_batches_total{tenant}     stratrec_ingest_batch_ops_total{tenant}
//	stratrec_sheds_total{tenant,reason="queue_full"|"deadline"|"closed"|"wal_broken"}
//	stratrec_queue_depth{tenant}              stratrec_queue_capacity{tenant}
//	stratrec_batch_latency_seconds{tenant}    stratrec_read_only{tenant}
//	stratrec_epoch{tenant}                    stratrec_open_requests{tenant}
//	stratrec_serving{tenant}                  stratrec_availability{tenant}
//	stratrec_strategies{tenant}
//	stratrec_wal_appends_total{tenant}        stratrec_wal_syncs_total{tenant}
//	stratrec_wal_last_seq{tenant}             stratrec_wal_errors_total{tenant}
//	stratrec_wal_checkpoints_total{tenant}    stratrec_wal_checkpoint_errors_total{tenant}
//	stratrec_adpar_pool_workers               stratrec_adpar_pool_busy
//	stratrec_adpar_pool_queue_capacity        stratrec_adpar_pool_waiting
//	stratrec_adpar_pool_sheds_total           stratrec_adpar_pool_wait_seconds
//	stratrec_group_commit_window_seconds      stratrec_group_commit_rounds_total
//	stratrec_group_commit_commits_total       stratrec_group_commit_max_round
//	stratrec_group_commit_direct_syncs_total

// promEscaper escapes label values per the exposition format.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promWriter accumulates one family at a time so HELP/TYPE headers are
// emitted exactly once per family, in a stable order.
type promWriter struct {
	w io.Writer
}

func (p *promWriter) family(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) sample(name string, labels [][2]string, value any) {
	if len(labels) == 0 {
		fmt.Fprintf(p.w, "%s %v\n", name, value)
		return
	}
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, l[0], promEscaper.Replace(l[1]))
	}
	fmt.Fprintf(p.w, "%s{%s} %v\n", name, sb.String(), value)
}

// boolGauge renders a bool as the 0/1 Prometheus speaks.
func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writePrometheus renders the whole metrics tree in Prometheus text
// format. Values are read from the same counters and live state the
// expvar tree exposes — two formats, one source of truth. Tenants are
// iterated in sorted order under the registry lock's snapshot, so
// runtime-created tenants appear and drained tenants disappear between
// scrapes.
func (s *Server) writePrometheus(w io.Writer) {
	p := &promWriter{w: w}

	p.family("stratrec_uptime_seconds", "Seconds since the server started.", "gauge")
	p.sample("stratrec_uptime_seconds", nil, s.now().Sub(s.start).Seconds())

	s.mu.RLock()
	names := make([]string, len(s.names))
	copy(names, s.names)
	tenants := make([]*Tenant, 0, len(names))
	for _, name := range names {
		tenants = append(tenants, s.tenants[name])
	}
	s.mu.RUnlock()

	p.family("stratrec_tenant_count", "Hosted tenants.", "gauge")
	p.sample("stratrec_tenant_count", nil, len(tenants))

	counter := func(name, help string, get func(t *Tenant) int64) {
		p.family(name, help, "counter")
		for i, t := range tenants {
			p.sample(name, [][2]string{{"tenant", names[i]}}, get(t))
		}
	}
	gauge := func(name, help string, get func(t *Tenant) any) {
		p.family(name, help, "gauge")
		for i, t := range tenants {
			p.sample(name, [][2]string{{"tenant", names[i]}}, get(t))
		}
	}

	counter("stratrec_submits_total", "Acknowledged submissions.",
		func(t *Tenant) int64 { return t.met.submits.Value() })
	counter("stratrec_revokes_total", "Acknowledged revocations.",
		func(t *Tenant) int64 { return t.met.revokes.Value() })
	counter("stratrec_availability_updates_total", "Acknowledged availability updates.",
		func(t *Tenant) int64 { return t.met.drifts.Value() })
	counter("stratrec_plan_reads_total", "Plan snapshot reads.",
		func(t *Tenant) int64 { return t.met.planReads.Value() })
	counter("stratrec_alternatives_total", "ADPaR alternative recommendations served.",
		func(t *Tenant) int64 { return t.met.alternatives.Value() })
	counter("stratrec_errors_total", "Failed operations, closed and WAL-broken sheds included (queue-full and deadline sheds excluded).",
		func(t *Tenant) int64 { return t.met.errors.Value() })
	counter("stratrec_coalesced_batches_total", "Event-loop replan cycles over live mutations.",
		func(t *Tenant) int64 { return t.met.batches.Value() })
	counter("stratrec_coalesced_ops_total", "Live mutations applied through coalesced cycles.",
		func(t *Tenant) int64 { return t.met.batchedOps.Value() })
	counter("stratrec_ingest_batches_total", "Batched-ingest bodies that reached the enqueue stage.",
		func(t *Tenant) int64 { return t.met.ingestBatches.Value() })
	counter("stratrec_ingest_batch_ops_total", "Ops carried by batched-ingest bodies.",
		func(t *Tenant) int64 { return t.met.ingestBatchOps.Value() })

	// Sheds are one family with a reason label, so alerting sums them
	// without chasing name variants.
	p.family("stratrec_sheds_total", "Mutations shed by admission control.", "counter")
	for i, t := range tenants {
		shed := func(reason string, n int64) {
			p.sample("stratrec_sheds_total", [][2]string{{"tenant", names[i]}, {"reason", reason}}, n)
		}
		shed("queue_full", t.met.shedsQueueFull.Value())
		shed("deadline", t.met.shedsDeadline.Value())
		shed("closed", t.met.shedsClosed.Value())
		shed("wal_broken", t.met.shedsWALBroken.Value())
	}

	gauge("stratrec_queue_depth", "Mutations waiting in the event-loop inbox.",
		func(t *Tenant) any { return len(t.ops) })
	gauge("stratrec_queue_capacity", "Event-loop inbox capacity.",
		func(t *Tenant) any { return cap(t.ops) })
	gauge("stratrec_batch_latency_seconds", "EWMA of coalesced-batch apply latency.",
		func(t *Tenant) any { return t.batchLatency.get(0).Seconds() })
	gauge("stratrec_read_only", "1 when the WAL circuit breaker has tripped.",
		func(t *Tenant) any { return boolGauge(t.readOnly.Load()) })
	gauge("stratrec_epoch", "Plan epoch of the published view.",
		func(t *Tenant) any { return t.view.Load().Epoch })
	gauge("stratrec_open_requests", "Open requests in the published view.",
		func(t *Tenant) any { return t.view.Load().Open })
	gauge("stratrec_serving", "Requests the published plan serves.",
		func(t *Tenant) any { return t.view.Load().Serving })
	gauge("stratrec_availability", "Expected workforce availability.",
		func(t *Tenant) any { return t.view.Load().Availability })
	gauge("stratrec_strategies", "Catalog strategies.",
		func(t *Tenant) any { return t.ix.Len() })

	// WAL families include only tenants running with durability.
	walCounter := func(name, help string, get func(t *Tenant) any) {
		p.family(name, help, "counter")
		for i, t := range tenants {
			if t.wal != nil {
				p.sample(name, [][2]string{{"tenant", names[i]}}, get(t))
			}
		}
	}
	anyWAL := false
	for _, t := range tenants {
		if t.wal != nil {
			anyWAL = true
			break
		}
	}
	if anyWAL {
		walCounter("stratrec_wal_appends_total", "WAL records appended.",
			func(t *Tenant) any { return t.wal.Appends() })
		walCounter("stratrec_wal_syncs_total", "WAL fsyncs issued.",
			func(t *Tenant) any { return t.wal.Syncs() })
		p.family("stratrec_wal_last_seq", "Highest assigned WAL sequence number.", "gauge")
		for i, t := range tenants {
			if t.wal != nil {
				p.sample("stratrec_wal_last_seq", [][2]string{{"tenant", names[i]}}, t.wal.LastSeq())
			}
		}
		walCounter("stratrec_wal_errors_total", "WAL append/commit failures (trips read-only).",
			func(t *Tenant) any { return t.met.walErrors.Value() })
		walCounter("stratrec_wal_checkpoints_total", "Checkpoints cut.",
			func(t *Tenant) any { return t.met.checkpoints.Value() })
		walCounter("stratrec_wal_checkpoint_errors_total", "Failed auto-checkpoints.",
			func(t *Tenant) any { return t.met.checkpointErrors.Value() })
	}

	if pool := s.pool; pool != nil {
		p.family("stratrec_adpar_pool_workers", "Alternative-query pool worker slots.", "gauge")
		p.sample("stratrec_adpar_pool_workers", nil, cap(pool.slots))
		p.family("stratrec_adpar_pool_busy", "Busy alternative-query workers.", "gauge")
		p.sample("stratrec_adpar_pool_busy", nil, len(pool.slots))
		p.family("stratrec_adpar_pool_queue_capacity", "Bounded wait-queue capacity.", "gauge")
		p.sample("stratrec_adpar_pool_queue_capacity", nil, pool.queueCap)
		p.family("stratrec_adpar_pool_waiting", "Queries waiting for a worker.", "gauge")
		p.sample("stratrec_adpar_pool_waiting", nil, pool.waiting.Load())
		p.family("stratrec_adpar_pool_sheds_total", "Alternative queries shed by the saturated pool.", "counter")
		p.sample("stratrec_adpar_pool_sheds_total", nil, pool.sheds.Load())
		p.family("stratrec_adpar_pool_wait_seconds", "EWMA of pool queue wait.", "gauge")
		p.sample("stratrec_adpar_pool_wait_seconds", nil, pool.waitEWMA.get(0).Seconds())
	}

	if gc := s.gc; gc != nil {
		p.family("stratrec_group_commit_window_seconds", "Group-commit collection window.", "gauge")
		p.sample("stratrec_group_commit_window_seconds", nil, gc.window.Seconds())
		p.family("stratrec_group_commit_rounds_total", "Shared fsync rounds.", "counter")
		p.sample("stratrec_group_commit_rounds_total", nil, gc.rounds.Load())
		p.family("stratrec_group_commit_commits_total", "Log-sync requests absorbed by rounds.", "counter")
		p.sample("stratrec_group_commit_commits_total", nil, gc.commits.Load())
		p.family("stratrec_group_commit_max_round", "Largest round observed.", "gauge")
		p.sample("stratrec_group_commit_max_round", nil, gc.maxRound.Load())
		p.family("stratrec_group_commit_direct_syncs_total",
			"Commits that fell back to a direct fsync during shutdown (nonzero means broken Close ordering).", "counter")
		p.sample("stratrec_group_commit_direct_syncs_total", nil, gc.directSyncs.Load())
	}
}
