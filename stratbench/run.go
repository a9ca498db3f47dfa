package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"stratrec/internal/synth"
)

// options configure one run of one workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// workdir holds the run's data dirs, removed when the run ends.
	workdir string
	// spans, when set, is where a traced run writes its spans.
	spans string
}

// result is one run's outcome: the last stdout line is built from it.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Failures  []string           `json:"failures,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
}

func (r *result) set(name string, v float64, n int) {
	r.Metrics[name] = v
	r.Samples[name] = n
}

// roundOut is one fresh server's set-up and measured phase.
type roundOut struct {
	phase         phaseResult
	setup         time.Duration
	heapMB        float64
	fails         []string
	before, after map[string]any
	diskBytes     int64
	allocBytes    uint64
	gcs           uint64
}

// phaseEvents sizes each tenant's pre-generated sequence so it outlasts
// a phase of length d.
func phaseEvents(w workload, d time.Duration) int {
	rate := w.maxRate
	if w.rate > 0 {
		rate = w.rate * 1.2
	}
	n := int(rate*d.Seconds()) + 64
	if w.batch > 0 {
		n += w.batch - n%w.batch
	}
	return n
}

func runWorkload(w workload, o options) (result, error) {
	res := result{Workload: w.name, Seed: o.seed, Traced: o.trace,
		Metrics: map[string]float64{}, Samples: map[string]int{}}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(o.workdir, w.name+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	loadRounds, shares := rounds, rounds
	if o.trace {
		// Two load rounds (untraced, then traced) and the layer replay,
		// each a third of the run.
		loadRounds, shares = 2, 3
	}
	roundDur := time.Duration(o.seconds / float64(shares) * float64(time.Second))
	in, err := genInputs(w, o.seed, phaseEvents(w, roundDur))
	if err != nil {
		return res, fmt.Errorf("generating inputs: %w", err)
	}
	var (
		prep string
		rec  map[string]recorded
	)
	if w.recoverTail > 0 {
		prep = filepath.Join(dir, "prep")
		if rec, err = prepareRecovery(w, in, prep); err != nil {
			return res, fmt.Errorf("preparing recovery dir: %w", err)
		}
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	outs := make([]roundOut, 0, loadRounds)
	for r := range loadRounds {
		var rtr *tracer // the second round of a traced run is the traced one
		if r == 1 {
			rtr = tr
		}
		out, err := runRound(w, in, rec, prep, filepath.Join(dir, fmt.Sprintf("round%d", r)), roundDur, rtr)
		if err != nil {
			return res, fmt.Errorf("round %d: %w", r, err)
		}
		res.Failures = append(res.Failures, out.fails...)
		res.Attempted += out.phase.attempted
		res.Failed += out.phase.failed
		outs = append(outs, out)
	}
	if o.trace {
		fails, err := replayLayers(&res, w, in, filepath.Join(dir, "replay"), outs, roundDur, tr)
		if err != nil {
			return res, fmt.Errorf("layer replay: %w", err)
		}
		res.Failures = append(res.Failures, fails...)
		if o.spans != "" {
			if err := writeSpans(o.spans, tr.since(0)); err != nil {
				return res, err
			}
		}
	} else {
		reportEndToEnd(&res, outs)
	}
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// reportEndToEnd folds the rounds of an untraced run into the end-to-end
// metrics: latencies pooled over rounds, set-up and heap as medians.
func reportEndToEnd(res *result, outs []roundOut) {
	var all phaseResult
	var setups, heaps []float64
	for _, o := range outs {
		all.merge(o.phase)
		setups = append(setups, o.setup.Seconds())
		heaps = append(heaps, o.heapMB)
	}
	res.set("ops_per_s", float64(all.acked)/all.elapsed.Seconds(), all.acked)
	mut := sortedCopy(all.mut)
	res.set("mut_p50_ms", quantile(mut, 0.5), len(mut))
	res.set("setup_s", median(setups), len(setups))
	res.set("heap_live_mb", median(heaps), len(heaps))
}

// runRound builds a fresh server (recovering a copy of prep when set,
// else prefilling), measures one phase and checks the outcome.
func runRound(w workload, in []tenantInput, rec map[string]recorded, prep, dataDir string, d time.Duration, tr *tracer) (roundOut, error) {
	var out roundOut
	if prep != "" {
		if err := copyDir(prep, dataDir); err != nil {
			return out, err
		}
	}
	defer os.RemoveAll(dataDir)
	base := liveHeap()
	ls, setup, err := startServer(serverConfig(w, in, dataDir))
	if err != nil {
		return out, err
	}
	if prep != "" {
		for _, ti := range in {
			if err := checkRecovered(ls, ti.name, rec[ti.name]); err != nil {
				out.fails = append(out.fails, err.Error())
			}
		}
	} else {
		t0 := time.Now()
		if err := prefillAll(ls.c, in, func(ti tenantInput) []synth.WorkloadEvent { return ti.prefill }, prefillBody); err != nil {
			return out, errors.Join(err, ls.close())
		}
		setup += time.Since(t0)
	}
	out.setup = setup
	out.heapMB = (float64(liveHeap()) - float64(base)) / 1e6
	if out.before, err = scrape(ls); err != nil {
		return out, errors.Join(err, ls.close())
	}
	allocs, gcs := readMetric("/gc/heap/allocs:bytes"), readMetric("/gc/cycles/total:gc-cycles")
	out.phase, err = runPhase(ls.c, w, in, d, tr)
	if err != nil {
		return out, errors.Join(err, ls.close())
	}
	out.allocBytes = readMetric("/gc/heap/allocs:bytes") - allocs
	out.gcs = readMetric("/gc/cycles/total:gc-cycles") - gcs
	if out.after, err = scrape(ls); err != nil {
		return out, errors.Join(err, ls.close())
	}
	out.fails = append(out.fails, checkServer(ls, w, in, out.before, out.after, out.phase.acked)...)
	if err := ls.close(); err != nil {
		return out, err
	}
	if w.durable {
		if out.diskBytes, err = dirSize(dataDir); err != nil {
			return out, err
		}
	}
	return out, nil
}

// prepareRecovery writes the recover workload's data dir: prefill, an
// explicit checkpoint, then the tail through /ops. It records what each
// tenant served before the close.
func prepareRecovery(w workload, in []tenantInput, dir string) (map[string]recorded, error) {
	ls, _, err := startServer(serverConfig(w, in, dir))
	if err != nil {
		return nil, err
	}
	rec, err := func() (map[string]recorded, error) {
		if err := prefillAll(ls.c, in, func(ti tenantInput) []synth.WorkloadEvent { return ti.prefill }, prefillBody); err != nil {
			return nil, err
		}
		for _, ti := range in {
			t, err := ls.srv.Tenant(ti.name)
			if err != nil {
				return nil, err
			}
			if _, err := t.Checkpoint(); err != nil {
				return nil, err
			}
		}
		if err := prefillAll(ls.c, in, func(ti tenantInput) []synth.WorkloadEvent { return ti.tail }, 32); err != nil {
			return nil, err
		}
		rec := map[string]recorded{}
		for _, ti := range in {
			t, err := ls.srv.Tenant(ti.name)
			if err != nil {
				return nil, err
			}
			sum, err := ls.c.PlanSummary(context.Background(), ti.name)
			if err != nil {
				return nil, err
			}
			rec[ti.name] = recorded{epoch: t.Snapshot().Epoch, summary: sum}
		}
		return rec, nil
	}()
	return rec, errors.Join(err, ls.close())
}
