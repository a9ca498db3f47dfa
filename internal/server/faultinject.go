package server

import "time"

// Faults injects controlled latency and failures into one tenant's write
// path. It exists for the chaos conformance profiles (thundering-herd,
// revoke-storm-shed, avail-flap) and for deterministic overload tests:
// slow-apply builds real inbox pressure, and WAL fsync schedules drive
// the read-only circuit breaker on demand. Every hook may be nil, and
// production configs leave the whole struct nil — the serving path then
// pays a single nil check per op.
//
// ApplyDelay and WALAppend run on the tenant's single-writer loop
// goroutine, and WALSync on the commit scheduler while that loop waits
// for its round, so invocations are strictly sequential per tenant and
// may keep state without locking (schedules, counters). Blocking inside
// a hook stalls the loop — for ApplyDelay that is exactly the point.
type Faults struct {
	// ApplyDelay, when non-nil, is consulted before each live mutation is
	// applied; the loop sleeps for the returned duration first. Recovery
	// replay is exempt (restarts must stay fast). A hook that blocks
	// internally (e.g. on a test gate channel) freezes the loop, which is
	// the deterministic way to fill the inbox.
	ApplyDelay func(kind, id string) time.Duration
	// WALSync, when non-nil, runs at the start of every WAL fsync.
	// Sleeping inside models a slow disk; returning an error fails the
	// commit round: every op whose record the round covered answers
	// ErrWALBroken, and the tenant trips its read-only circuit breaker.
	// The failed records are discarded, never flushed (see
	// wal.Options.TestSyncHook), so a 503 keeps its meaning: not
	// acknowledged, not recovered.
	WALSync func() error
	// WALAppend, when non-nil, runs at the start of every WAL record
	// append, before the record's bytes reach the log's buffered writer.
	// Returning an error fails that append like a disk write failure:
	// the log rolls back to its durable prefix (destroying any earlier
	// same-batch records the prefix does not cover — a whole coalesced
	// batch is buffered between commit rounds), the tenant trips its
	// read-only circuit breaker, and every op whose record was rolled
	// back answers ErrWALBroken. Tenant logs fsync only in commit rounds,
	// never inside an append, so append-path failures need this separate
	// hook (see wal.Options.TestWriteHook).
	WALAppend func() error
	// SolveDelay, unlike the loop hooks above, runs on HANDLER
	// goroutines: it stretches every ADPaR alternative solve while its
	// query-pool slot is held, so chaos profiles can saturate the pool
	// deterministically (the warm-index solve is otherwise microseconds).
	// It may run concurrently with itself; keep it stateless.
	SolveDelay time.Duration
}

// applyDelay runs the slow-apply hook for one live op, if configured.
func (t *Tenant) applyDelay(o op) {
	if t.faults == nil || t.faults.ApplyDelay == nil || o.replay {
		return
	}
	if d := t.faults.ApplyDelay(o.kind.String(), appliedID(o)); d > 0 {
		time.Sleep(d)
	}
}
