package main

import (
	"math/rand"
	"slices"
	"testing"

	"stratrec/internal/batch"
	"stratrec/internal/stream"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// tiny shrinks a workload to a size that runs in well under a second
// while keeping its shape (durability, wire, loop type, recovery).
func tiny(w workload) workload {
	w.strategies = 30
	w.prefill = 40
	if w.recoverTail > 0 {
		w.recoverTail = 60
	}
	if w.rate > 0 {
		w.rate = 300
	}
	return w
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	slices.Sort(out)
	return out
}

// TestSmokeAllWorkloads runs every workload untraced and traced at tiny
// sizes: every declared metric must be emitted (and nothing else), and
// every correctness check must pass.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live servers")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 7, seconds: 0.5, trace: traced, workdir: t.TempDir()}
			res, err := runWorkload(tiny(w), o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d failures=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			want := metricNames(endToEndMetrics)
			if traced {
				want = metricNames(perLayerMetrics)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: emitted %v, want %v", w.name, traced, got, want)
			}
			if !traced {
				for _, d := range endToEndMetrics {
					if v := res.Metrics[d.name]; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", w.name, d.name, v)
					}
				}
			}
		}
	}
}

// TestCheckPlanCatchesTamperedSnapshot proves the BatchStrat check can
// fail: flipping one serving flag in an otherwise correct snapshot must
// be reported.
func TestCheckPlanCatchesTamperedSnapshot(t *testing.T) {
	gen := synth.DefaultConfig(synth.Uniform)
	rng := rand.New(rand.NewSource(3))
	set := gen.Strategies(rng, 40)
	mgr, err := stream.NewManager(set, gen.Models(rng, set), workforce.MaxCase, batch.Throughput, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := gen.Workload(rng, synth.WorkloadConfig{Events: 60, K: requestK, TightFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if _, err := mgr.Submit(ev.Request); err != nil {
			t.Fatal(err)
		}
	}
	snap := mgr.Snapshot()
	if err := checkPlan("t", snap); err != nil {
		t.Fatalf("untampered snapshot: %v", err)
	}
	if len(snap.Plan.Serving) == 0 || len(snap.Plan.Displaced) == 0 {
		t.Fatalf("want both served and displaced requests, got %d/%d", len(snap.Plan.Serving), len(snap.Plan.Displaced))
	}
	for i := range snap.Requests {
		tampered := *snap
		tampered.Requests = slices.Clone(snap.Requests)
		tampered.Requests[i].Serving = !tampered.Requests[i].Serving
		if err := checkPlan("t", &tampered); err == nil {
			t.Errorf("flipping request %s went unnoticed", snap.Requests[i].ID)
		}
	}
}
