package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"stratrec/internal/adpar"
	"stratrec/internal/client"
	"stratrec/internal/server"
	"stratrec/internal/strategy"
	"stratrec/internal/stream"
	"stratrec/internal/synth"
	"stratrec/internal/wal"
	"stratrec/internal/workforce"
)

// layers walks the public functions under the tenant loop the way one
// loop cycle calls them: manager mutations inside Begin, one WAL record
// per op, one repair, one sync, one snapshot publish, then an ADPaR
// solve per displaced submit.
type layers struct {
	cfg   server.TenantConfig
	mgr   *stream.Manager
	ix    *adpar.Index
	log   *wal.Log
	tr    *tracer
	bytes int // encoded WAL bytes
	recs  int
}

func newLayers(cfg server.TenantConfig, walDir string) (*layers, error) {
	mgr, err := stream.NewManager(cfg.Set, cfg.Models, cfg.Mode, cfg.Objective, cfg.InitialW)
	if err != nil {
		return nil, err
	}
	ix, err := adpar.NewIndex(cfg.Set)
	if err != nil {
		return nil, err
	}
	if err := mgr.AttachIndex(ix); err != nil {
		return nil, err
	}
	lg, _, err := wal.Open(walDir, wal.Options{SyncManual: true})
	if err != nil {
		return nil, err
	}
	return &layers{cfg: cfg, mgr: mgr, ix: ix, log: lg}, nil
}

// cycle applies evs as one loop cycle; ops are numbered from firstOp.
func (l *layers) cycle(evs []synth.WorkloadEvent, firstOp int) error {
	cyc := l.tr.begin("cycle", 0, firstOp)
	defer l.tr.end(cyc)
	l.mgr.Begin()
	for j, ev := range evs {
		op := firstOp + j
		id := l.tr.begin("stream.apply", cyc, op)
		var err error
		switch ev.Kind {
		case synth.SubmitArrival:
			_, err = l.mgr.Submit(ev.Request)
		case synth.RevokeArrival:
			err = l.mgr.Revoke(ev.RevokeID)
		case synth.DriftArrival:
			err = l.mgr.SetAvailability(ev.Availability)
		}
		l.tr.end(id)
		if err != nil {
			l.mgr.Commit()
			return fmt.Errorf("replaying op %d: %w", op, err)
		}
		rec := l.record(ev)
		if ev.Kind == synth.SubmitArrival {
			id = l.tr.begin("workforce.requirement", cyc, op)
			workforce.RequirementFor(ev.Request, rec.Sub, l.cfg.Set, l.cfg.Models, l.cfg.Mode)
			l.tr.end(id)
		}
		id = l.tr.begin("wal.encode", cyc, op)
		b, err := wal.EncodeRecordBinary(rec)
		l.tr.end(id)
		if err != nil {
			l.mgr.Commit()
			return err
		}
		l.bytes += len(b)
		l.recs++
		id = l.tr.begin("wal.append", cyc, op)
		_, err = l.log.Append(rec)
		l.tr.end(id)
		if err != nil {
			l.mgr.Commit()
			return err
		}
	}
	id := l.tr.begin("batch.repair", cyc, firstOp)
	l.mgr.Commit()
	l.tr.end(id)
	id = l.tr.begin("wal.sync", cyc, firstOp)
	err := l.log.Sync()
	l.tr.end(id)
	if err != nil {
		return err
	}
	id = l.tr.begin("stream.snapshot", cyc, firstOp)
	l.mgr.Snapshot()
	l.tr.end(id)
	for j, ev := range evs {
		if ev.Kind != synth.SubmitArrival {
			continue
		}
		if served, open := l.mgr.Served(ev.Request.ID); open && !served {
			id = l.tr.begin("adpar.solve", cyc, firstOp+j)
			_, err := l.ix.Solve(ev.Request)
			l.tr.end(id)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// record builds the WAL record the tenant loop logs for an applied op.
func (l *layers) record(ev synth.WorkloadEvent) wal.Record {
	rec := wal.Record{Epoch: l.mgr.Epoch()}
	switch ev.Kind {
	case synth.SubmitArrival:
		r := ev.Request
		seq, _ := l.mgr.SubmissionSeq(r.ID)
		req, _ := l.mgr.Requirement(r.ID)
		rec.Kind, rec.ID, rec.Sub = wal.KindSubmit, r.ID, seq
		rec.Quality, rec.Cost, rec.Latency, rec.K = r.Quality, r.Cost, r.Latency, r.K
		rec.Infeasible = !req.Feasible()
		if req.Feasible() {
			rec.Req = req.Workforce
		}
	case synth.RevokeArrival:
		rec.Kind, rec.ID = wal.KindRevoke, ev.RevokeID
	case synth.DriftArrival:
		rec.Kind, rec.W = wal.KindAvailability, ev.Availability
	}
	return rec
}

// checkpoint freezes the manager the way the tenant's checkpoint does.
func (l *layers) checkpoint() error {
	snap := l.mgr.Snapshot()
	cp := wal.Checkpoint{
		Epoch: snap.Epoch, Availability: snap.Availability,
		NextSub:  l.mgr.SubmissionCounter(),
		Requests: make([]wal.CheckpointRequest, 0, len(snap.Requests)),
	}
	for _, rs := range snap.Requests {
		cr := wal.CheckpointRequest{
			ID: rs.ID, Quality: rs.Request.Quality, Cost: rs.Request.Cost,
			Latency: rs.Request.Latency, K: rs.Request.K,
			Sub: rs.Seq, Infeasible: !rs.Feasible,
		}
		if rs.Feasible {
			cr.Req = rs.Workforce
		}
		cp.Requests = append(cp.Requests, cr)
	}
	_, err := l.log.Checkpoint(cp)
	return err
}

// replayLayers is the traced run's in-process replay. After the same
// prefill as the measured phase, it walks tenant 0's first events one
// at a time three ways — over HTTP on tenant "a", through the in-process
// Tenant API on tenant "b", and through the layers under the loop in
// cycles of the measured ops-per-cycle — and reports the per-layer
// metrics into res. outs are the run's untraced and traced load rounds.
func replayLayers(res *result, w workload, in []tenantInput, dir string, outs []roundOut, d time.Duration, tr *tracer) ([]string, error) {
	ti := in[0]
	loaded := outs[1]
	delta := func(path string) float64 { return counter(loaded.after, path) - counter(loaded.before, path) }
	tdelta := func(field string) float64 {
		return tenantSum(loaded.after, in, field) - tenantSum(loaded.before, in, field)
	}
	opsPerCycle := 1.0
	if b := tdelta("coalesced_batches"); b > 0 {
		opsPerCycle = tdelta("coalesced_ops") / b
	}
	perCycle := max(1, int(math.Round(opsPerCycle)))
	pre := append(append([]synth.WorkloadEvent(nil), ti.prefill...), ti.tail...)

	cfg := server.Config{Tenants: map[string]server.TenantConfig{"a": ti.cfg, "b": ti.cfg}}
	if w.durable {
		cfg.DataDir = filepath.Join(dir, "served")
		cfg.WALGroupCommitWindow = groupCommitWindow
		cfg.CheckpointEvery = checkpointEvery
	}
	ls, _, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	pair := []tenantInput{{name: "a", prefill: pre}, {name: "b", prefill: pre}}
	if err := prefillAll(ls.c, pair, func(t tenantInput) []synth.WorkloadEvent { return t.prefill }, prefillBody); err != nil {
		return nil, errors.Join(err, ls.close())
	}
	walRoot := filepath.Join(dir, "wal")
	l, err := newLayers(ti.cfg, filepath.Join(walRoot, ti.name))
	if err != nil {
		return nil, errors.Join(err, ls.close())
	}
	var fails []string
	rp := replayer{ls: ls, tr: tr}
	err = func() error {
		if err := l.cycle(pre, 0); err != nil {
			return err
		}
		t0 := time.Now()
		if err := l.checkpoint(); err != nil {
			return err
		}
		res.set("wal.checkpoint_ms", ms(time.Since(t0)), 1)
		l.tr = tr
		tb, err := ls.srv.Tenant("b")
		if err != nil {
			return err
		}
		rp.b = tb
		rp.mark = tr.len()
		deadline := time.Now().Add(d)
		for lo := 0; lo < len(ti.events) && lo < replayOps && time.Now().Before(deadline); lo += perCycle {
			cyc := ti.events[lo:min(lo+perCycle, len(ti.events))]
			for j, ev := range cyc {
				rp.op(ev, lo+j+1, ti.events[max(0, lo+j+1-32):lo+j+1])
			}
			if err := l.cycle(cyc, lo+1); err != nil {
				return err
			}
		}
		return nil
	}()
	fails = append(fails, rp.fails...)
	for _, name := range []string{"a", "b"} {
		if t, terr := ls.srv.Tenant(name); terr == nil {
			if cerr := checkPlan(name, t.Snapshot()); cerr != nil {
				fails = append(fails, cerr.Error())
			}
		}
	}
	if cerr := checkPlan("replay", l.mgr.Snapshot()); cerr != nil {
		fails = append(fails, cerr.Error())
	}
	if err := errors.Join(err, l.log.Close(), ls.close()); err != nil {
		return fails, err
	}
	rfails, err := measureRecovery(res, ti, walRoot, l.mgr.Epoch())
	fails = append(fails, rfails...)
	if err != nil {
		return fails, err
	}
	disk := loaded.diskBytes
	if !w.durable {
		if disk, err = dirSize(walRoot); err != nil {
			return fails, err
		}
	}
	res.set("disk_mb", float64(disk)/1e6, 1)
	res.set("wal.bytes_per_record", float64(l.bytes)/float64(max(l.recs, 1)), l.recs)
	res.set("tenant.ops_per_cycle", opsPerCycle, int(tdelta("coalesced_batches")))
	res.set("tenant.sheds", tdelta("sheds_queue_full")+tdelta("sheds_deadline")+delta("adpar_pool.sheds"), 1)
	if w.durable {
		res.set("groupcommit.syncs_per_op", tdelta("wal.syncs")/math.Max(tdelta("wal.appends"), 1), int(tdelta("wal.appends")))
		res.set("groupcommit.logs_per_round", delta("group_commit.commits")/math.Max(delta("group_commit.rounds"), 1), int(delta("group_commit.rounds")))
	} else {
		// No WAL is served: report the replayed log's ratio, and no
		// commit rounds.
		res.set("groupcommit.syncs_per_op", float64(l.log.Syncs())/float64(max(l.log.Appends(), 1)), int(l.log.Appends()))
		res.set("groupcommit.logs_per_round", 0, 0)
	}
	reportLoad(res, outs)
	reportSpans(res, tr.since(rp.mark), w.durable)
	return fails, nil
}

// measureRecovery times wal.Scan of the replayed log and then server.New
// over it, and checks the recovered tenant against the replay.
func measureRecovery(res *result, ti tenantInput, walRoot string, epoch uint64) ([]string, error) {
	t0 := time.Now()
	if _, err := wal.Scan(filepath.Join(walRoot, ti.name)); err != nil {
		return nil, err
	}
	scan := time.Since(t0)
	t0 = time.Now()
	srv, err := server.New(server.Config{DataDir: walRoot, Tenants: map[string]server.TenantConfig{ti.name: ti.cfg}})
	if err != nil {
		return nil, fmt.Errorf("recovering the replayed log: %w", err)
	}
	recovery := time.Since(t0)
	defer srv.Close()
	res.set("wal.scan_ms", ms(scan), 1)
	res.set("recover.replay_ms", ms(recovery-scan), 1)
	t, err := srv.Tenant(ti.name)
	if err != nil {
		return nil, err
	}
	var fails []string
	if got := t.Snapshot().Epoch; got != epoch {
		fails = append(fails, fmt.Sprintf("replayed log recovered at epoch %d, want %d", got, epoch))
	}
	if err := checkPlan("recovered", t.Snapshot()); err != nil {
		fails = append(fails, err.Error())
	}
	return fails, nil
}

// reportLoad reports what the traced load round observed from the
// client side, and the tracing overhead against the untraced round.
func reportLoad(res *result, outs []roundOut) {
	p := outs[1].phase
	res.set("go.alloc_bytes_per_op", float64(outs[1].allocBytes)/float64(max(p.attempted, 1)), p.attempted)
	res.set("go.gc_count", float64(outs[1].gcs), 1)
	late := sortedCopy(p.late)
	res.set("bench.late_p99_ms", orZero(quantile(late, tailQuantile(len(late)))), len(late))
	// Plan reads and the mutation tail: their run-to-run spread on a
	// small shared host is too wide for an end-to-end bound (README.md
	// gives the evidence).
	mut, plan := sortedCopy(p.mut), sortedCopy(p.plan)
	res.set("load.mut_p99_ms", orZero(quantile(mut, tailQuantile(len(mut)))), len(mut))
	res.set("load.plan_p50_ms", orZero(quantile(plan, 0.5)), len(plan))
	res.set("load.plan_p99_ms", orZero(quantile(plan, tailQuantile(len(plan)))), len(plan))
	untraced := outs[0].phase
	res.set("trace.overhead_share",
		1-(float64(p.acked)/p.elapsed.Seconds())/(float64(untraced.acked)/untraced.elapsed.Seconds()), 2)
}

// replayer drives one replayed op over HTTP (tenant "a") and through the
// in-process Tenant API (tenant "b"), and times the decoders on its
// wire bodies.
type replayer struct {
	ls    *liveServer
	b     *server.Tenant
	tr    *tracer
	mark  int // spans before this index belong to the load rounds
	fails []string
}

func (rp *replayer) op(ev synth.WorkloadEvent, op int, window []synth.WorkloadEvent) {
	ctx := context.Background()
	if ev.Kind == synth.SubmitArrival {
		body, _ := json.Marshal(submitBody(ev.Request))
		var sr server.SubmitRequest
		id := rp.tr.begin("api.decode_submit", 0, op)
		err := json.Unmarshal(body, &sr)
		rp.tr.end(id)
		rp.check(err)
	}
	if len(window) == 32 {
		ops := make([]client.BatchOp, len(window))
		for i, e := range window {
			ops[i] = batchOp(e)
		}
		body, _ := json.Marshal(server.BatchRequest{Ops: ops})
		var br server.BatchRequest
		id := rp.tr.begin("api.decode_batch", 0, op)
		err := json.Unmarshal(body, &br)
		rp.tr.end(id)
		rp.check(err)
	}

	served := true
	var err error
	switch ev.Kind {
	case synth.SubmitArrival:
		id := rp.tr.begin("http.submit", 0, op)
		var resp client.SubmitResponse
		resp, err = rp.ls.c.Submit(ctx, "a", submitBody(ev.Request))
		rp.tr.end(id)
		served = resp.Served
	case synth.RevokeArrival:
		id := rp.tr.begin("http.revoke", 0, op)
		_, err = rp.ls.c.Revoke(ctx, "a", ev.RevokeID)
		rp.tr.end(id)
	case synth.DriftArrival:
		id := rp.tr.begin("http.drift", 0, op)
		_, err = rp.ls.c.SetAvailability(ctx, "a", ev.Availability)
		rp.tr.end(id)
	}
	rp.check(err)
	if err == nil && !served {
		id := rp.tr.begin("http.alternative", 0, op)
		_, err = rp.ls.c.Alternative(ctx, "a", ev.Request.ID)
		rp.tr.end(id)
		rp.check(err)
	}

	id := rp.tr.begin("tenant.call", 0, op)
	switch ev.Kind {
	case synth.SubmitArrival:
		_, err = rp.b.Submit(ctx, ev.Request)
	case synth.RevokeArrival:
		_, err = rp.b.Revoke(ctx, ev.RevokeID)
	case synth.DriftArrival:
		_, err = rp.b.SetAvailability(ctx, ev.Availability)
	}
	rp.tr.end(id)
	rp.check(err)
}

func (rp *replayer) check(err error) {
	if err != nil {
		rp.fails = append(rp.fails, "replay: "+err.Error())
	}
}

func submitBody(r strategy.Request) client.SubmitRequest {
	return client.SubmitRequest{ID: r.ID, Quality: r.Quality, Cost: r.Cost, Latency: r.Latency, K: r.K}
}

// reportSpans turns the replay's spans into <name>.p50_us, .p99_us and
// .count, deriving the self and wait times by pairing spans of one op.
// The layer replay always logs; for an in-memory tenant (durable false)
// the WAL spans are left out of the work a tenant call is charged with.
func reportSpans(res *result, spans []span, durable bool) {
	byName := map[string][]float64{}
	byOp := map[string]map[int]float64{}
	cycleShare := map[int]float64{} // cycle span ID -> per-op share of its cycle-level work
	cycleOps := map[int]int{}
	opCycle := map[int]int{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.us())
		if byOp[s.Name] == nil {
			byOp[s.Name] = map[int]float64{}
		}
		byOp[s.Name][s.Op] += s.us()
		switch s.Name {
		case "wal.sync":
			if durable {
				cycleShare[s.Parent] += s.us()
			}
		case "batch.repair", "stream.snapshot":
			cycleShare[s.Parent] += s.us()
		case "stream.apply":
			cycleOps[s.Parent]++
			opCycle[s.Op] = s.Parent
		}
	}
	var httpSelf, wait, altSelf []float64
	for op, call := range byOp["tenant.call"] {
		for _, k := range []string{"http.submit", "http.revoke", "http.drift"} {
			if h, ok := byOp[k][op]; ok {
				httpSelf = append(httpSelf, h-call)
			}
		}
		if c, ok := opCycle[op]; ok {
			work := byOp["stream.apply"][op] + cycleShare[c]/float64(cycleOps[c])
			if durable {
				work += byOp["wal.encode"][op] + byOp["wal.append"][op]
			}
			wait = append(wait, call-work)
		}
	}
	for op, h := range byOp["http.alternative"] {
		if s, ok := byOp["adpar.solve"][op]; ok {
			altSelf = append(altSelf, h-s)
		}
	}
	byName["http.self"], byName["tenant.wait"], byName["alt.self"] = httpSelf, wait, altSelf
	for _, name := range spanMetrics {
		xs := sortedCopy(byName[name])
		res.set(name+".p50_us", orZero(quantile(xs, 0.5)), len(xs))
		res.set(name+".p99_us", orZero(quantile(xs, tailQuantile(len(xs)))), len(xs))
		res.set(name+".count", float64(len(xs)), len(xs))
	}
}

// orZero maps the NaN of an empty sample to 0 so results stay valid JSON.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
