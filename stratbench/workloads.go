package main

import (
	"fmt"
	"strings"
	"time"
)

// workload is one traffic mix. Sizes are frozen here, not in
// BENCHMARK.json (whose schema has no room for them), so a run repeats
// exactly for a given seed; README.md gives the reason for each mix.
type workload struct {
	name string
	why  string
	// durable serves from a data dir with group commit; otherwise the
	// server runs in memory.
	durable bool
	// strategies is the catalog size of each of the two tenants.
	strategies int
	// prefill is how many open requests each tenant holds before the
	// measured phase (untimed traffic that doubles as warm-up).
	prefill int
	// batch is the /ops body size; 0 sends every mutation on its per-op
	// route.
	batch int
	// rate is each client's Poisson rate in events/s (open loop); 0 is a
	// closed loop.
	rate float64
	// tight is the share of submits drawn from the ADPaR band (displaced).
	tight float64
	// planEvery issues a PlanSummary read after this many events.
	planEvery int
	// maxRate bounds one closed-loop client's events/s; it only sizes
	// the pre-generated event sequence, which must outlast the phase.
	maxRate float64
	// recoverTail, when positive, makes this the recovery workload: each
	// tenant is prefilled, checkpointed and then given this many more
	// mutations through /ops before the server closes; every round then
	// times server.New over a copy of that data dir.
	recoverTail int
}

const (
	revokeFraction = 0.475
	driftFraction  = 0.05
	requestK       = 3
	tenants        = 2
	// rounds is how many fresh servers an untraced run sets up and
	// measures, each for an equal share of the run's seconds. Noise on a
	// small shared host comes in bursts of seconds; pooling several
	// rounds, and taking set-up time as their median, evens it out.
	rounds = 5
	// replayOps caps the single-threaded layer replay of a traced run,
	// which also stops after a third of the run's seconds.
	replayOps = 2000
)

// workloads is the benchmark's frozen workload table.
var workloads = []workload{
	{
		name:       "ingest-perop-small",
		why:        "durable per-op mutations on a 500-request pool: HTTP, JSON, the loop hop and the group-commit wait dominate",
		durable:    true,
		strategies: 200, prefill: 500,
		tight: 0.3, planEvery: 20, maxRate: 3000,
	},
	{
		name:       "ingest-batch-large",
		why:        "durable 32-op bodies on a 10k-request pool: planner repair, O(pool) snapshot publish and checkpoints dominate",
		durable:    true,
		strategies: 200, prefill: 10000, batch: 32,
		tight: 0.3, planEvery: 640, maxRate: 30000,
	},
	{
		name:       "query-open",
		why:        "in-memory open loop at 2x250 events/s on 2000 strategies: ADPaR solves and snapshot reads, no WAL",
		strategies: 2000, prefill: 2000, rate: 250,
		tight: 0.6, planEvery: 5,
	},
	{
		name:       "recover",
		why:        "restart over a checkpoint plus WAL tail: scan, decode, re-admit and replay dominate set-up, then per-op traffic",
		durable:    true,
		strategies: 200, prefill: 1000, recoverTail: 2000,
		tight: 0.3, planEvery: 20, maxRate: 3000,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Server settings shared by the durable workloads.
const (
	groupCommitWindow = 500 * time.Microsecond
	coalesce          = 256
	opBuffer          = 256
	checkpointEvery   = 10000
	initialW          = 0.7
	// prefillBody is the /ops body size of untimed prefill; it fits the
	// default 64-op inbox of the in-memory workload.
	prefillBody = 64
)

// metricDef declares one reported metric. The lists below are the
// single source the driver emits from; BENCHMARK.json must declare
// exactly these (schema_test.go checks both directions).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

var endToEndMetrics = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.24},
	{"mut_p50_ms", "ms", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// spanMetrics are the replayed spans reported as <name>.p50_us,
// <name>.p99_us and <name>.count.
var spanMetrics = []string{
	"api.decode_submit", "api.decode_batch", "http.self", "tenant.call", "tenant.wait",
	"stream.apply", "batch.repair", "stream.snapshot", "workforce.requirement",
	"wal.encode", "wal.append", "wal.sync", "adpar.solve", "http.alternative", "alt.self",
}

var perLayerMetrics = func() []metricDef {
	var out []metricDef
	for _, s := range spanMetrics {
		out = append(out,
			metricDef{name: s + ".p50_us", unit: "us", better: "lower"},
			metricDef{name: s + ".p99_us", unit: "us", better: "lower"},
			metricDef{name: s + ".count", unit: "count", better: "higher"})
	}
	return append(out,
		metricDef{name: "tenant.ops_per_cycle", unit: "ops", better: "higher"},
		metricDef{name: "tenant.sheds", unit: "count", better: "lower"},
		metricDef{name: "groupcommit.syncs_per_op", unit: "ratio", better: "lower"},
		metricDef{name: "groupcommit.logs_per_round", unit: "ratio", better: "higher"},
		metricDef{name: "wal.bytes_per_record", unit: "B", better: "lower"},
		metricDef{name: "wal.checkpoint_ms", unit: "ms", better: "lower"},
		metricDef{name: "wal.scan_ms", unit: "ms", better: "lower"},
		metricDef{name: "recover.replay_ms", unit: "ms", better: "lower"},
		metricDef{name: "disk_mb", unit: "MB", better: "lower"},
		metricDef{name: "go.alloc_bytes_per_op", unit: "B", better: "lower"},
		metricDef{name: "go.gc_count", unit: "count", better: "lower"},
		metricDef{name: "bench.late_p99_ms", unit: "ms", better: "lower"},
		metricDef{name: "load.mut_p99_ms", unit: "ms", better: "lower"},
		metricDef{name: "load.plan_p50_ms", unit: "ms", better: "lower"},
		metricDef{name: "load.plan_p99_ms", unit: "ms", better: "lower"},
		metricDef{name: "trace.overhead_share", unit: "fraction", better: "lower"},
	)
}()
