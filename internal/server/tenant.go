package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"stratrec/internal/adpar"
	"stratrec/internal/batch"
	"stratrec/internal/strategy"
	"stratrec/internal/stream"
	"stratrec/internal/wal"
	"stratrec/internal/workforce"
)

// TenantConfig describes one hosted tenant: a strategy catalog with its
// availability models and planning semantics.
type TenantConfig struct {
	Set    strategy.Set
	Models workforce.PerStrategyModels
	// Mode and Objective select the tenant's planning semantics.
	Mode      workforce.Mode
	Objective batch.Objective
	// InitialW is the starting expected workforce.
	InitialW float64
	// Parallelism caps the ADPaR sweep workers (0 = GOMAXPROCS).
	Parallelism int
	// OpBuffer sizes the event-loop inbox; 0 defaults to 64.
	OpBuffer int
	// Coalesce caps how many pending mutations the event loop drains from
	// the inbox and applies per replan cycle: the drained batch is applied
	// through the manager's deferred-replan mode (one WAL append per op,
	// preserving the per-record epoch trail and acked ⇒ logged ordering),
	// then repaired once, published once, and only then replied to. Under
	// a queue of n waiting ops that is one plan repair instead of n.
	// 0 defaults to 32; 1 disables coalescing (one op per cycle).
	Coalesce int
	// OnApply, when non-nil, is invoked by the event loop after each
	// mutation has been applied and (on success) the fresh snapshot
	// published, before the reply is sent. It runs on the loop goroutine
	// itself — the tenant's single writer — so invocations are strictly
	// sequential and ordered with the mutations they report. Deterministic
	// harnesses use it to step event-by-event and observe the exact apply
	// order; it must not call back into the same tenant's mutation API
	// (that would deadlock the loop).
	OnApply func(AppliedOp)
	// Faults, when non-nil, injects latency and failures into this
	// tenant's write path (see Faults). Chaos profiles and overload tests
	// only; leave nil in production.
	Faults *Faults
}

// AppliedOp describes one mutation the tenant event loop applied, as seen
// by the TenantConfig.OnApply step callback.
type AppliedOp struct {
	Tenant string
	// Kind is "submit", "revoke" or "availability".
	Kind string
	// ID is the affected request ID (submit and revoke).
	ID string
	// Epoch is the plan epoch after the mutation.
	Epoch uint64
	// Err is the mutation's outcome; nil means it was applied and a new
	// snapshot is published.
	Err error
}

// ErrTenantClosed reports an operation against a tenant whose event loop
// has shut down.
var ErrTenantClosed = errors.New("server: tenant closed")

// ErrWALBroken reports a mutation rejected because an earlier WAL append
// failed. Once the log cannot be trusted to record what the manager
// applies, accepting further mutations would let memory and disk drift
// arbitrarily far apart — and the divergent log would poison the next
// recovery (sequence holes, epoch-trail mismatches). The tenant instead
// goes read-only: reads keep serving the last published snapshot, writes
// fail with 503 until the operator restarts the server (recovery then
// rebuilds exactly the logged state).
var ErrWALBroken = errors.New("server: write-ahead log failed; tenant is read-only until restart")

// durability carries the server-level WAL settings down to each tenant.
type durability struct {
	dataDir         string
	checkpointEvery int
	// gc is the server's commit scheduler, set whenever dataDir is: the
	// tenant opens its WAL in manual-sync mode and asks gc to make each
	// batch durable.
	gc *groupCommitter
}

// Tenant hosts one strategy catalog behind a single-writer event loop.
//
// stream.Manager is not goroutine-safe, so every mutation (submit, revoke,
// availability) is a message to the loop goroutine — the only writer —
// rather than a lock acquisition. After each successful mutation the loop
// publishes an immutable stream.Snapshot through an atomic pointer, and
// all reads (plan queries, alternative recommendations) are served from
// that snapshot plus the tenant's immutable warm adpar.Index without ever
// touching the manager or blocking behind writers. Replies are sent after
// the snapshot is stored, so a client observes its own writes.
type Tenant struct {
	name    string
	mgr     *stream.Manager
	ix      *adpar.Index
	met     *tenantMetrics
	onApply func(AppliedOp)

	// wal, when non-nil, is the tenant's write-ahead log: the loop
	// appends every successful live mutation (after applying it, before
	// publishing the snapshot and replying) and commits the batch through
	// gc, so an acknowledged mutation is on disk and fsynced before the
	// client sees the acknowledgement. On the first append failure the
	// failing mutation's snapshot is withheld (readers never observe the
	// unlogged write), readOnly trips, and the tenant rejects writes
	// (ErrWALBroken) so memory can never advance past what the log
	// recorded — which keeps the on-disk log recoverable.
	wal *wal.Log
	// readOnly is the WAL circuit breaker: written only by the loop
	// goroutine, read by the loop, admission control and /healthz.
	readOnly atomic.Bool
	// draining marks a tenant being removed at runtime: live mutations
	// are rejected with ErrTenantClosed (503) while the final checkpoint
	// and loop shutdown proceed. Reads keep serving until detach.
	draining  atomic.Bool
	ckptEvery int
	sinceCkpt int
	// gc is the server's commit scheduler (set with wal): the WAL is in
	// manual-sync mode and applyBatch commits each batch through it.
	gc *groupCommitter

	// coalesce is the max ops applied per replan cycle; batch and results
	// are the loop's reusable drain scratch (loop goroutine only).
	coalesce int
	batch    []op
	results  []opResult

	// batchLatency tracks recent live coalesced-batch apply latency; the
	// admission check multiplies it by queue depth to project a new
	// mutation's wait and by cap to compute Retry-After on a shed.
	batchLatency ewma
	// faults injects chaos-test latency/failures (nil in production).
	faults *Faults
	// pool throttles ADPaR alternative queries; nil means uncapped
	// (direct tenant embedding without a Server).
	pool *queryPool
	// log is the tenant's structured logger ("tenant" attr pre-attached);
	// never nil — a discard logger when the server runs unlogged, so hot
	// paths guard with Enabled and pay nothing.
	log *slog.Logger
	// now is the tenant's clock, inherited from Config.Now (never nil).
	// Every time-derived observable on the write path — enqueue stamps,
	// batch-latency EWMA samples, projected-wait deadline checks,
	// recovery timing — reads this clock, never time.Now, so the
	// conformance harness's fixed or stepped clock makes overload
	// shedding and Retry-After hints bit-reproducible. The clockdiscipline
	// analyzer (internal/lint) enforces this statically.
	now func() time.Time

	ops  chan op
	quit chan struct{}
	done chan struct{}
	snap atomic.Pointer[stream.Snapshot]
	// closeOnce makes close idempotent: a drained tenant may also be
	// swept by Server.Close racing the drain.
	closeOnce sync.Once
}

type opKind int

const (
	opSubmit opKind = iota
	opRevoke
	opAvailability
	// opRestoreCounters force-sets epoch and submission counter after the
	// checkpointed pool has been re-admitted (recovery only).
	opRestoreCounters
	// opCheckpoint snapshots the tenant and truncates its WAL.
	opCheckpoint
)

func (k opKind) String() string {
	switch k {
	case opSubmit:
		return "submit"
	case opRevoke:
		return "revoke"
	case opAvailability:
		return "availability"
	case opRestoreCounters:
		return "restore-counters"
	case opCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("opKind(%d)", int(k))
}

// appliedID extracts the request ID an op targets, if any.
func appliedID(o op) string {
	switch o.kind {
	case opSubmit:
		return o.req.ID
	case opRevoke:
		return o.id
	}
	return ""
}

type op struct {
	kind opKind
	req  strategy.Request // opSubmit
	id   string           // opRevoke
	w    float64          // opAvailability
	// replay marks recovery ops: they re-apply already-logged mutations,
	// so the loop must not append them to the WAL again, and they are
	// invisible to OnApply (which observes live traffic only).
	replay bool
	// sub is the restored submission sequence number (replay submits) or
	// the restored submission counter (opRestoreCounters).
	sub uint64
	// epoch is the restored plan epoch (opRestoreCounters).
	epoch uint64
	// ctx carries the caller's deadline for live mutations. The loop
	// checks it immediately before apply: an expired op is shed there —
	// before apply, therefore before its WAL append — never after, so an
	// acknowledgement always refers to a logged mutation.
	ctx   context.Context
	reply chan opResult
	// trace is the op's correlation ID (live mutations only), stamped on
	// every structured log event the op produces end-to-end.
	trace string
	// enq is when the op entered admission; reply-event latency measures
	// from here.
	enq time.Time
}

type opResult struct {
	served bool
	epoch  uint64
	err    error
	// seq is the op's WAL sequence number (live logged mutations only);
	// after a failed append or commit round it decides whether the op's
	// record made it into the durable prefix.
	seq uint64
	// ckpt reports checkpoint outcomes (opCheckpoint).
	ckpt CheckpointInfo
	// reqWF/reqFeasible echo the replayed submission's recomputed
	// workforce requirement so restore can verify it against the logged
	// fingerprint (replay submits only).
	reqWF       float64
	reqFeasible bool
}

// newTenant builds the tenant, compiles its warm ADPaR index, opens its
// WAL (when durability is on) and starts the event loop. Recovery —
// re-admitting the checkpointed pool and replaying the log tail — runs
// through the event loop itself before newTenant returns, so by the time
// the server exposes its handler the tenant's published snapshot is the
// recovered state.
func newTenant(name string, cfg TenantConfig, dur durability, pool *queryPool, logger *slog.Logger, now func() time.Time) (*Tenant, error) {
	if logger == nil {
		logger = discardLogger()
	}
	if now == nil {
		now = defaultClock()
	}
	mgr, err := stream.NewManager(cfg.Set, cfg.Models, cfg.Mode, cfg.Objective, cfg.InitialW)
	if err != nil {
		return nil, fmt.Errorf("server: tenant %s: %w", name, err)
	}
	ix, err := adpar.NewIndex(cfg.Set)
	if err != nil {
		return nil, fmt.Errorf("server: tenant %s: %w", name, err)
	}
	ix.Parallelism = cfg.Parallelism
	if err := mgr.AttachIndex(ix); err != nil {
		return nil, fmt.Errorf("server: tenant %s: %w", name, err)
	}
	buf := cfg.OpBuffer
	if buf <= 0 {
		buf = 64
	}
	coalesce := cfg.Coalesce
	if coalesce <= 0 {
		coalesce = 32
	}
	t := &Tenant{
		name:     name,
		mgr:      mgr,
		ix:       ix,
		onApply:  cfg.OnApply,
		faults:   cfg.Faults,
		pool:     pool,
		log:      logger.With(slog.String("tenant", name)),
		coalesce: coalesce,
		batch:    make([]op, 0, coalesce),
		results:  make([]opResult, 0, coalesce),
		ops:      make(chan op, buf),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		now:      now,
	}
	var recovered wal.Recovered
	if dur.dataDir != "" {
		opts := wal.Options{SyncManual: true}
		if cfg.Faults != nil && cfg.Faults.WALSync != nil {
			opts.TestSyncHook = cfg.Faults.WALSync
		}
		if cfg.Faults != nil && cfg.Faults.WALAppend != nil {
			opts.TestWriteHook = cfg.Faults.WALAppend
		}
		t.gc = dur.gc
		l, rec, err := wal.Open(filepath.Join(dur.dataDir, name), opts)
		if err != nil {
			return nil, fmt.Errorf("server: tenant %s: opening WAL: %w", name, err)
		}
		t.wal = l
		t.ckptEvery = dur.checkpointEvery
		recovered = rec
	}
	t.met = newTenantMetrics(t)
	t.snap.Store(mgr.Snapshot())
	go t.loop()
	if t.wal != nil {
		start := t.now()
		if err := t.restore(recovered); err != nil {
			t.close()
			return nil, fmt.Errorf("server: tenant %s: recovery: %w", name, err)
		}
		t.met.noteRecovery(recovered, t.now().Sub(start))
		ckptRequests := 0
		if recovered.Checkpoint != nil {
			ckptRequests = len(recovered.Checkpoint.Requests)
		}
		t.log.LogAttrs(context.Background(), slog.LevelInfo, evRecovery,
			slog.Int("checkpoint_requests", ckptRequests),
			slog.Int("tail_records", len(recovered.Tail)),
			slog.Int("torn_bytes", recovered.TornBytes),
			slog.Int64("latency_us", t.now().Sub(start).Microseconds()))
	}
	return t, nil
}

// restore replays recovered durable state through the live event loop:
// availability and pool from the checkpoint (under the original
// submission sequence numbers), counter and epoch restoration, then the
// WAL tail record by record. Each tail record carries the plan epoch its
// original application reached; the replayed application must land on
// exactly that epoch, turning the epoch trail into an end-to-end
// integrity check of recovery.
func (t *Tenant) restore(rec wal.Recovered) error {
	if cp := rec.Checkpoint; cp != nil {
		if res := t.do(op{kind: opAvailability, w: cp.Availability, replay: true}); res.err != nil {
			return fmt.Errorf("restoring availability %v: %w", cp.Availability, res.err)
		}
		for _, r := range cp.Requests {
			res := t.do(op{kind: opSubmit, replay: true, sub: r.Sub, req: strategy.Request{
				ID:     r.ID,
				Params: strategy.Params{Quality: r.Quality, Cost: r.Cost, Latency: r.Latency},
				K:      r.K,
			}})
			if res.err != nil {
				return fmt.Errorf("re-admitting %s (sub %d): %w", r.ID, r.Sub, res.err)
			}
			if err := verifyFingerprint(r.Req, r.Infeasible, res); err != nil {
				return fmt.Errorf("re-admitting %s (sub %d): %w", r.ID, r.Sub, err)
			}
		}
		if res := t.do(op{kind: opRestoreCounters, replay: true, epoch: cp.Epoch, sub: cp.NextSub}); res.err != nil {
			return res.err
		}
	}
	for _, r := range rec.Tail {
		var res opResult
		switch r.Kind {
		case wal.KindSubmit:
			res = t.do(op{kind: opSubmit, replay: true, sub: r.Sub, req: strategy.Request{
				ID:     r.ID,
				Params: strategy.Params{Quality: r.Quality, Cost: r.Cost, Latency: r.Latency},
				K:      r.K,
			}})
			if res.err == nil {
				if err := verifyFingerprint(r.Req, r.Infeasible, res); err != nil {
					return fmt.Errorf("seq %d (submit %s): %w", r.Seq, r.ID, err)
				}
			}
		case wal.KindRevoke:
			res = t.do(op{kind: opRevoke, replay: true, id: r.ID})
		case wal.KindAvailability:
			res = t.do(op{kind: opAvailability, replay: true, w: r.W})
		default:
			return fmt.Errorf("seq %d: unknown record kind %q", r.Seq, r.Kind)
		}
		if res.err != nil {
			return fmt.Errorf("replaying seq %d (%s %s): %w", r.Seq, r.Kind, r.ID, res.err)
		}
		if res.epoch != r.Epoch {
			return fmt.Errorf("epoch divergence at seq %d (%s %s): log recorded %d, replay reached %d",
				r.Seq, r.Kind, r.ID, r.Epoch, res.epoch)
		}
	}
	return nil
}

// verifyFingerprint compares a replayed submission's recomputed workforce
// requirement against the fingerprint its original admission logged. The
// requirement is a pure function of (request, submission seq, catalog,
// models, aggregation mode), so any difference — bit-level included —
// means the log is being replayed against the wrong tenant universe, and
// recovery must fail loudly rather than rebuild a silently different
// plan. The epoch trail cannot catch this: the pool-generation counter is
// deliberately independent of planning outcomes.
func verifyFingerprint(wantReq float64, wantInfeasible bool, res opResult) error {
	if res.reqFeasible == wantInfeasible {
		return fmt.Errorf("requirement fingerprint divergence: log recorded infeasible=%v, replay computed infeasible=%v (wrong catalogs?)",
			wantInfeasible, !res.reqFeasible)
	}
	if !wantInfeasible && res.reqWF != wantReq {
		return fmt.Errorf("requirement fingerprint divergence: log recorded %v, replay computed %v (wrong catalogs?)",
			wantReq, res.reqWF)
	}
	return nil
}

// loop is the tenant's single writer: it owns the stream.Manager
// exclusively. Each cycle drains up to Coalesce pending mutations from
// the inbox and applies them as one deferred-replan batch: per op, the
// manager mutation and its WAL append (apply order, acked ⇒ logged
// preserved); per batch, one plan repair, one snapshot publish, and only
// then the replies — so a client still observes its own write. Admin ops
// (checkpoint, counter restore) never share a cycle with mutations.
func (t *Tenant) loop() {
	defer close(t.done)
	var next *op // a non-coalescable op the drain ran into
	for {
		var o op
		if next != nil {
			o, next = *next, nil
		} else {
			select {
			case o = <-t.ops:
			case <-t.quit:
				t.drainOnClose()
				return
			}
		}
		if !o.kind.mutates() {
			t.applyAdmin(o)
			continue
		}
		batch := append(t.batch[:0], o)
	drain:
		for len(batch) < t.coalesce && next == nil {
			select {
			case o2 := <-t.ops:
				if o2.kind.mutates() {
					batch = append(batch, o2)
				} else {
					next = &o2
				}
			default:
				break drain
			}
		}
		t.applyBatch(batch)
		t.batch = batch[:0]
	}
}

// drainOnClose answers every op still sitting in the inbox when the loop
// shuts down. Each waiter gets a definitive ErrTenantClosed (a shed:
// never applied, never logged) instead of racing the done channel, so a
// graceful shutdown acks-or-sheds every accepted op deterministically.
// Senders racing the quit close may still slip an op in after this drain;
// they resolve through await's done-recheck to the same ErrTenantClosed.
func (t *Tenant) drainOnClose() {
	for {
		select {
		case o := <-t.ops:
			o.reply <- opResult{err: ErrTenantClosed}
		default:
			return
		}
	}
}

// applyAdmin serves the non-mutating ops (checkpoint, counter restore)
// outside any coalesced batch.
func (t *Tenant) applyAdmin(o op) {
	var res opResult
	switch o.kind {
	case opRestoreCounters:
		t.mgr.RestoreCounters(o.epoch, o.sub)
	case opCheckpoint:
		res.ckpt, res.err = t.checkpointNow()
	}
	res.epoch = t.mgr.Epoch()
	if res.err == nil {
		t.snap.Store(t.mgr.Snapshot())
	}
	o.reply <- res
}

// applyBatch applies a drained batch of mutations through the manager's
// deferred-replan mode. The WAL append for each op happens immediately
// after its apply — in apply order, before the batch's snapshot publish
// and before any reply — so the acked ⇒ logged invariant and the
// per-record epoch trail are exactly what a one-op-per-cycle loop would
// have produced. On a WAL append failure the failing mutation is applied
// but unlogged: the whole batch's snapshot is withheld so no reader ever
// observes it, the remaining ops are rejected unapplied, and the tenant
// goes read-only (ErrWALBroken). After the appends the batch commits
// through the server's commit scheduler, which fsyncs the log before any
// reply. A failed append or commit round rolls the segment back to its
// durable prefix, so ops of the batch are acknowledged only if their
// records are inside that prefix (a mid-batch auto-checkpoint made them
// durable); anything past it is re-marked ErrWALBroken before the
// replies, keeping acked ⇒ logged ⇒ fsynced exact. Acknowledged ops stay
// invisible until the restart rebuilds exactly the logged state.
func (t *Tenant) applyBatch(ops []op) {
	start := t.now()
	results := t.results[:0]
	// walErr is the batch's first WAL failure (append or commit round).
	var walErr error
	anyApplied := false
	appended := false
	// Progress events are debug-level and guarded once per batch, so an
	// unlogged server pays one atomic load here, not per-op attribute
	// construction.
	dbg := t.log.Enabled(context.Background(), slog.LevelDebug)
	t.mgr.Begin()
	for _, o := range ops {
		var res opResult
		if t.readOnly.Load() && !o.replay {
			res.err = ErrWALBroken
			res.epoch = t.mgr.Epoch()
			results = append(results, res)
			continue
		}
		// Deadline check at the last possible pre-apply moment: an op
		// whose caller deadline already expired while it queued is shed
		// here — before apply, therefore before any WAL append — so a
		// 429 is as absolute a promise as a never-enqueued shed.
		if ctxExpired(o.ctx, t.now) {
			res.err = t.shedDeadline(
				fmt.Sprintf("deadline expired while queued (%s %s)", o.kind, appliedID(o)),
				t.projectedWait(len(t.ops)))
			res.epoch = t.mgr.Epoch()
			results = append(results, res)
			continue
		}
		t.applyDelay(o)
		switch o.kind {
		case opSubmit:
			if o.replay {
				_, res.err = t.mgr.Resubmit(o.req, o.sub)
			} else {
				_, res.err = t.mgr.Submit(o.req)
			}
		case opRevoke:
			res.err = t.mgr.Revoke(o.id)
		case opAvailability:
			res.err = t.mgr.SetAvailability(o.w)
		}
		res.epoch = t.mgr.Epoch()
		if dbg && !o.replay {
			attrs := []slog.Attr{
				slog.String("trace", o.trace),
				slog.String("kind", o.kind.String()),
				slog.String("id", appliedID(o)),
				slog.Uint64("epoch", res.epoch),
			}
			if res.err != nil {
				attrs = append(attrs, slog.String("error", res.err.Error()))
			}
			t.log.LogAttrs(context.Background(), slog.LevelDebug, evApply, attrs...)
		}
		if res.err == nil {
			if o.kind == opSubmit {
				if req, ok := t.mgr.Requirement(o.req.ID); ok {
					res.reqWF, res.reqFeasible = req.Workforce, req.Feasible()
				}
			}
			if t.wal != nil && !o.replay {
				if seq, werr := t.logMutation(o, res); werr != nil {
					// The triggering op reports ErrWALBroken like every
					// write after it: its apply will not survive the
					// restart, so the client must read the 503 as "not
					// acknowledged, will be absent" — same contract.
					res.err = fmt.Errorf("%w (append failed: %v)", ErrWALBroken, werr)
					t.met.walErrors.Add(1)
					// The manager applied a mutation the log did not
					// record: freeze the divergence at this one unacked op.
					t.readOnly.Store(true)
					walErr = werr
				} else {
					res.seq = seq
					appended = true
					if dbg {
						t.log.LogAttrs(context.Background(), slog.LevelDebug, evAppend,
							slog.String("trace", o.trace),
							slog.String("kind", o.kind.String()),
							slog.String("id", appliedID(o)),
							slog.Uint64("seq", seq))
					}
				}
			}
			if res.err == nil {
				anyApplied = true
			}
		}
		results = append(results, res)
	}
	t.mgr.Commit()
	if appended && walErr == nil {
		// The batch's appends are buffered, not yet durable. Hand the log
		// to the commit scheduler and block until its fsync round completes
		// — strictly before the snapshot publish and the replies, so acked
		// ⇒ logged ⇒ fsynced holds per op; only the fsync is shared.
		if walErr = t.gc.commit(t.wal); walErr != nil {
			t.met.walErrors.Add(1)
			t.readOnly.Store(true)
		} else if dbg {
			t.log.LogAttrs(context.Background(), slog.LevelDebug, evCommit,
				slog.Int("batch_ops", len(ops)),
				slog.Uint64("durable_seq", t.wal.DurableSeq()))
		}
	}
	if walErr != nil {
		// The failed append or commit round rolled the log back to its
		// durable prefix (wal fail), destroying every record of this batch
		// past it — buffered, or spilled to the file but not yet fsynced.
		// Their ops carry err==nil and a seq beyond the prefix:
		// acknowledging them would violate acked ⇒ logged ⇒ fsynced (the
		// mutations vanish on restart), so they flip to ErrWALBroken.
		// Records at or below the prefix were made durable by a mid-batch
		// auto-checkpoint and their acks stand.
		durable := t.wal.DurableSeq()
		for i := range results {
			if results[i].err == nil && results[i].seq > durable {
				results[i].err = fmt.Errorf("%w (record rolled back: %v)", ErrWALBroken, walErr)
			}
		}
	}
	if anyApplied && walErr == nil {
		t.snap.Store(t.mgr.Snapshot())
		if dbg && !ops[0].replay {
			t.log.LogAttrs(context.Background(), slog.LevelDebug, evPublish,
				slog.Uint64("epoch", t.mgr.Epoch()),
				slog.Int("batch_ops", len(ops)))
		}
	}
	if !ops[0].replay {
		t.met.batches.Add(1)
		t.met.batchedOps.Add(int64(len(ops)))
		t.batchLatency.observe(t.now().Sub(start))
	}
	for i, o := range ops {
		res := results[i]
		if o.kind == opSubmit && res.err == nil {
			res.served, _ = t.mgr.Served(o.req.ID)
		}
		if t.onApply != nil && !o.replay {
			t.onApply(AppliedOp{
				Tenant: t.name,
				Kind:   o.kind.String(),
				ID:     appliedID(o),
				Epoch:  res.epoch,
				Err:    res.err,
			})
		}
		o.reply <- res
	}
	t.results = results[:0]
}

// mutates reports whether the op kind changes tenant state that the WAL
// must capture.
func (k opKind) mutates() bool {
	return k == opSubmit || k == opRevoke || k == opAvailability
}

// logMutation appends one applied mutation to the WAL, then
// auto-checkpoints when the configured append budget since the last
// checkpoint is spent. It runs immediately after the mutation applied —
// possibly mid-batch, before the deferred replan — so the record carries
// only replan-independent fields: the pool-generation epoch and, for
// submits, the admission-time requirement fingerprint.
func (t *Tenant) logMutation(o op, res opResult) (uint64, error) {
	rec := wal.Record{Epoch: res.epoch}
	switch o.kind {
	case opSubmit:
		seq, ok := t.mgr.SubmissionSeq(o.req.ID)
		if !ok {
			return 0, fmt.Errorf("submitted request %s missing from its own pool", o.req.ID)
		}
		rec.Kind = wal.KindSubmit
		rec.ID = o.req.ID
		rec.Quality = o.req.Quality
		rec.Cost = o.req.Cost
		rec.Latency = o.req.Latency
		rec.K = o.req.K
		rec.Sub = seq
		rec.Infeasible = !res.reqFeasible
		if res.reqFeasible {
			// +Inf (the infeasible sentinel) does not survive JSON; the
			// flag alone carries that case.
			rec.Req = res.reqWF
		}
	case opRevoke:
		rec.Kind = wal.KindRevoke
		rec.ID = o.id
	case opAvailability:
		rec.Kind = wal.KindAvailability
		rec.W = o.w
	}
	walSeq, err := t.wal.Append(rec)
	if err != nil {
		return 0, err
	}
	t.sinceCkpt++
	if t.ckptEvery > 0 && t.sinceCkpt >= t.ckptEvery {
		// An auto-checkpoint failure is not the triggering mutation's
		// problem: that mutation is applied and logged (and its batch's
		// commit round fsyncs it before its ack). Count it and retry at
		// the next append (sinceCkpt keeps growing); the log just stays
		// longer than intended until a checkpoint lands.
		if _, err := t.checkpointNow(); err != nil {
			t.met.checkpointErrors.Add(1)
		}
	}
	return walSeq, nil
}

// checkpointNow (loop goroutine only) freezes the manager state into a
// durable checkpoint and truncates the WAL behind it. It is safe to run
// mid-batch (an auto-checkpoint triggered between a batch's appends):
// everything the checkpoint stores — pool membership, admission-cached
// requirements, epoch, availability, submission counter — is independent
// of the deferred plan repair, and the serving flags a mid-batch snapshot
// might show stale are not persisted (recovery recomputes the plan).
func (t *Tenant) checkpointNow() (CheckpointInfo, error) {
	if t.wal == nil {
		return CheckpointInfo{}, ErrNoDurability
	}
	if t.readOnly.Load() {
		// The manager holds exactly one mutation the log never recorded.
		// A checkpoint here would make that unacknowledged divergence
		// durable (and truncate the good log behind it), destroying the
		// restart-rebuilds-the-logged-state guarantee the read-only
		// circuit breaker exists to protect.
		return CheckpointInfo{}, fmt.Errorf("%w: checkpoint refused, memory holds an unlogged mutation", ErrWALBroken)
	}
	snap := t.mgr.Snapshot()
	cp := wal.Checkpoint{
		Epoch:        snap.Epoch,
		Availability: snap.Availability,
		NextSub:      t.mgr.SubmissionCounter(),
		Requests:     make([]wal.CheckpointRequest, 0, len(snap.Requests)),
	}
	for _, rs := range snap.Requests {
		cr := wal.CheckpointRequest{
			ID:         rs.ID,
			Quality:    rs.Request.Quality,
			Cost:       rs.Request.Cost,
			Latency:    rs.Request.Latency,
			K:          rs.Request.K,
			Sub:        rs.Seq,
			Infeasible: !rs.Feasible,
		}
		if rs.Feasible {
			cr.Req = rs.Workforce
		}
		cp.Requests = append(cp.Requests, cr)
	}
	removed, err := t.wal.Checkpoint(cp)
	if err != nil {
		return CheckpointInfo{}, err
	}
	t.sinceCkpt = 0
	t.met.checkpoints.Add(1)
	t.log.LogAttrs(context.Background(), slog.LevelInfo, evCheckpoint,
		slog.Uint64("last_seq", t.wal.LastSeq()),
		slog.Int("requests", len(cp.Requests)),
		slog.Int("removed_segments", removed))
	return CheckpointInfo{
		LastSeq:         t.wal.LastSeq(),
		Requests:        len(cp.Requests),
		RemovedSegments: removed,
	}, nil
}

// do routes one recovery-replay or admin op through the event loop. Live
// mutations go through enqueue instead; do keeps the blocking send:
// recovery owns the loop, and a checkpoint is allowed to wait out a burst.
func (t *Tenant) do(o op) opResult {
	o.reply = make(chan opResult, 1)
	select {
	case t.ops <- o:
	case <-t.quit:
		return opResult{err: ErrTenantClosed}
	}
	return t.await(o.reply)
}

// enqueue is the one admission path for live mutations: the single-op
// endpoints pass a one-op slice, POST /ops the whole body. Admission is
// decided once for all of ops (see refusal): a refused body enqueues
// nothing, every op gets its own rejection, and the first one is
// returned as err. Past admission, ops enqueue in order without
// blocking: a full inbox sheds the op at hand (429 with Retry-After)
// instead of parking the caller — the unbounded queue this layer
// removes — and every enqueued op gets the loop's definitive reply.
// Because the inbox is FIFO and this goroutine is the only sender of
// these ops, they apply in slice order, and consecutive ops share a
// replan cycle and a commit round whenever the loop drains them
// together.
//
// Once enqueued, an op is never abandoned on a context deadline: the
// loop may be mid-apply, and "applied + logged but caller gave up" would
// break exactly-once accounting. The loop itself sheds expired ops before
// apply and replies so. Every op, refused or answered, is settled exactly
// once, so counters and the log see one traffic stream regardless of
// wire shape.
func (t *Tenant) enqueue(ctx context.Context, ops []op) ([]opResult, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	trace, enq := traceFrom(ctx), t.now()
	for i := range ops {
		ops[i].ctx, ops[i].trace, ops[i].enq = ctx, trace, enq
	}
	results := make([]opResult, len(ops))
	if refuse := t.refusal(ctx); refuse != nil {
		for i := range ops {
			results[i].err = refuse()
			t.settle(ops[i], results[i])
		}
		return nil, results[0].err
	}
	dbg := t.log.Enabled(context.Background(), slog.LevelDebug)
	for i := range ops {
		ops[i].reply = make(chan opResult, 1)
		select {
		case t.ops <- ops[i]:
			if dbg {
				t.log.LogAttrs(context.Background(), slog.LevelDebug, evAdmit,
					slog.String("trace", trace),
					slog.String("kind", ops[i].kind.String()),
					slog.String("id", appliedID(ops[i])),
					slog.Int("queue_depth", len(t.ops)))
			}
		case <-t.quit:
			results[i].err = ErrTenantClosed
		default:
			select {
			// The inbox is full, but distinguish shutdown from overload:
			// a closing tenant is 503, not 429.
			case <-t.quit:
				results[i].err = ErrTenantClosed
			default:
				results[i].err = t.shedQueueFull()
			}
		}
	}
	// Replies arrive in enqueue order (FIFO inbox, in-order loop), so a
	// sequential collect never waits on an op behind an unserved one. An
	// op already holding an error was never enqueued.
	for i := range ops {
		if results[i].err == nil {
			results[i] = t.await(ops[i].reply)
		}
		t.settle(ops[i], results[i])
	}
	return results, nil
}

// refusal decides admission for a whole body at once: nil admits it;
// otherwise the returned func builds each op's rejection. A read-only or
// draining tenant refuses, and so does a deadline the projected queue
// wait already overshoots — the ops would only expire in line. A
// deadline refusal counts one shed per op.
func (t *Tenant) refusal(ctx context.Context) func() error {
	if t.readOnly.Load() {
		return func() error { return ErrWALBroken }
	}
	if t.draining.Load() {
		// The tenant is being removed at runtime: same contract as
		// shutdown — the mutation was never enqueued, never applied.
		return func() error { return ErrTenantClosed }
	}
	if dl, ok := ctx.Deadline(); ok {
		if wait := t.projectedWait(len(t.ops)); t.now().Add(wait).After(dl) {
			reason := fmt.Sprintf("projected queue wait %v exceeds request deadline", wait)
			return func() error { return t.shedDeadline(reason, wait) }
		}
	}
	return nil
}

// single reads a one-op enqueue: a refused body is that op's answer.
func single(results []opResult, err error) opResult {
	if err != nil {
		return opResult{err: err}
	}
	return results[0]
}

// ctxExpired reports whether ctx has ended, judging its deadline (if any)
// against the injected clock rather than the runtime's wall clock. The
// HTTP layer derives mutation deadlines from the same clock (see
// mutationContext), so under a fake clock the whole deadline path —
// stamping, admission projection, and this pre-apply check — lives on one
// timeline; under the real clock the comparison is equivalent to ctx.Err.
// Cancellation (client gone) is still honored directly.
func ctxExpired(ctx context.Context, now func() time.Time) bool {
	if ctx == nil {
		return false
	}
	if dl, ok := ctx.Deadline(); ok {
		// A deadline-bearing mutation context (mutationContext) is detached
		// from the request and cancelled only by its own deadline, so the
		// injected-clock comparison is the sole judge — the runtime timer
		// behind ctx.Done() reads the wall clock and would fire early (or
		// never) under a fake one.
		return !now().Before(dl)
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// await collects the loop's definitive reply for an enqueued op. The
// reply channel is buffered, so the loop's send cannot block (or leak)
// even when the waiter has resolved through the closed done channel.
func (t *Tenant) await(reply chan opResult) opResult {
	select {
	case res := <-reply:
		return res
	case <-t.done:
		// The loop exited after accepting but before serving the op.
		select {
		case res := <-reply:
			return res
		default:
			return opResult{err: ErrTenantClosed}
		}
	}
}

// settle records a live mutation's outcome: its counter, and its single
// terminal event. A success counts as a submit, revoke or availability
// update; a failure counts in errors unless it is a shed (sheds have
// their own counters and are expected under overload, not a fault). The
// event is "shed" when the op was rejected without a surviving, durable
// apply (overload, deadline, tenant closed or draining, WAL broken),
// "reply" otherwise — the loop's definitive answer, acks and domain
// errors alike. Exactly one terminal event per live mutation is a
// contract the conformance oracle checks: it correlates every ack and
// shed to one log line by trace ID.
func (t *Tenant) settle(o op, res opResult) {
	switch {
	case res.err != nil:
		if !errors.Is(res.err, ErrOverloaded) {
			t.met.errors.Add(1)
		}
	case o.kind == opSubmit:
		t.met.submits.Add(1)
	case o.kind == opRevoke:
		t.met.revokes.Add(1)
	case o.kind == opAvailability:
		t.met.drifts.Add(1)
	}
	ev, lvl := evReply, slog.LevelInfo
	if err := res.err; err != nil &&
		(errors.Is(err, ErrOverloaded) || errors.Is(err, ErrTenantClosed) || errors.Is(err, ErrWALBroken)) {
		ev, lvl = evShed, slog.LevelWarn
	}
	if !t.log.Enabled(context.Background(), lvl) {
		return
	}
	attrs := []slog.Attr{
		slog.String("trace", o.trace),
		slog.String("kind", o.kind.String()),
		slog.String("id", appliedID(o)),
		slog.Uint64("epoch", res.epoch),
		slog.Int64("latency_us", t.now().Sub(o.enq).Microseconds()),
	}
	if res.seq > 0 {
		attrs = append(attrs, slog.Uint64("seq", res.seq))
	}
	if res.err != nil {
		attrs = append(attrs, slog.String("error", res.err.Error()))
	}
	t.log.LogAttrs(context.Background(), lvl, ev, attrs...)
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// SubmitResult reports the outcome of a submission. Served reflects the
// plan published with the acknowledgement: under coalescing that plan
// already includes every mutation applied in the same replan cycle, so a
// denser submit drained into the same batch can displace this one before
// its ack (and a same-batch revoke reports Served=false). Epoch is the
// pool-generation counter after this mutation alone, batch-independent.
type SubmitResult struct {
	Served bool
	Epoch  uint64
}

// Submit admits a request through the event loop. ctx carries the
// caller's deadline into admission control and the loop's pre-apply shed
// check; Submit itself still waits for the loop's definitive answer (see
// enqueue).
func (t *Tenant) Submit(ctx context.Context, d strategy.Request) (SubmitResult, error) {
	res := single(t.enqueue(ctx, []op{{kind: opSubmit, req: d}}))
	if res.err != nil {
		return SubmitResult{}, res.err
	}
	return SubmitResult{Served: res.served, Epoch: res.epoch}, nil
}

// Revoke withdraws an open request through the event loop.
func (t *Tenant) Revoke(ctx context.Context, id string) (uint64, error) {
	res := single(t.enqueue(ctx, []op{{kind: opRevoke, id: id}}))
	if res.err != nil {
		return 0, res.err
	}
	return res.epoch, nil
}

// SetAvailability moves the expected workforce through the event loop.
func (t *Tenant) SetAvailability(ctx context.Context, w float64) (uint64, error) {
	res := single(t.enqueue(ctx, []op{{kind: opAvailability, w: w}}))
	if res.err != nil {
		return 0, res.err
	}
	return res.epoch, nil
}

// CheckpointInfo reports one tenant checkpoint's outcome.
type CheckpointInfo struct {
	// LastSeq is the WAL sequence number the checkpoint covers.
	LastSeq uint64 `json:"last_seq"`
	// Requests is the number of open requests frozen into the checkpoint.
	Requests int `json:"requests"`
	// RemovedSegments counts log segments deleted by the truncation.
	RemovedSegments int `json:"removed_segments"`
}

// Checkpoint snapshots the tenant's durable state and truncates its WAL,
// through the event loop (so the checkpoint is consistent: no mutation is
// half-applied in it). Fails with ErrNoDurability when the server runs
// without a data directory.
func (t *Tenant) Checkpoint() (CheckpointInfo, error) {
	res := t.do(op{kind: opCheckpoint})
	if res.err != nil {
		if !errors.Is(res.err, ErrNoDurability) {
			t.met.errors.Add(1)
		}
		return CheckpointInfo{}, res.err
	}
	return res.ckpt, nil
}

// Snapshot returns the latest published plan snapshot — a lock-free read.
func (t *Tenant) Snapshot() *stream.Snapshot {
	t.met.planReads.Add(1)
	return t.snap.Load()
}

// Alternative recommends ADPaR alternative parameters for an open request
// the current plan does not serve. The call takes no locks — the request
// is resolved against the latest snapshot and solved on the tenant's
// immutable warm index — but the CPU-heavy solve is throttled through the
// server's query pool (when one is attached): a bounded number run
// concurrently, a bounded number wait, and beyond that the query is shed
// with ErrOverloaded. Plan reads and mutation acks are never behind the
// pool. The returned RequestState is the one the solution was computed
// for, so callers read K (and anything else) from it rather than
// re-resolving the ID against a possibly newer snapshot.
func (t *Tenant) Alternative(ctx context.Context, id string) (adpar.Solution, stream.RequestState, error) {
	if t.pool != nil {
		if err := t.pool.acquire(ctx); err != nil {
			return adpar.Solution{}, stream.RequestState{}, err
		}
		defer t.pool.release()
	}
	if t.faults != nil && t.faults.SolveDelay > 0 {
		time.Sleep(t.faults.SolveDelay)
	}
	rs, ok := t.snap.Load().Request(id)
	if !ok {
		t.met.errors.Add(1)
		return adpar.Solution{}, rs, fmt.Errorf("%w: %s", stream.ErrUnknownID, id)
	}
	if rs.Serving {
		t.met.errors.Add(1)
		return adpar.Solution{}, rs, fmt.Errorf("%w: %s", stream.ErrServed, id)
	}
	sol, err := t.ix.Solve(rs.Request)
	if err != nil {
		t.met.errors.Add(1)
		return adpar.Solution{}, rs, err
	}
	t.met.alternatives.Add(1)
	return sol, rs, nil
}

// close stops the event loop, then flushes and closes the WAL. Pending
// ops that the loop never accepted (and callers racing the shutdown) get
// ErrTenantClosed. Idempotent: a runtime drain and Server.Close may
// race.
func (t *Tenant) close() {
	t.closeOnce.Do(func() {
		close(t.quit)
		<-t.done
		if t.wal != nil {
			t.wal.Close()
		}
	})
}
