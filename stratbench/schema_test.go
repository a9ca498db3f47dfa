package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	slices.Sort(got)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileNamesAndLimits(t *testing.T) {
	bf := loadBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", bf.RunSeconds)
	}
	for _, w := range bf.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	for _, m := range bf.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s end-to-end metric")
	}
	if !slices.Equal(bf.Paths, []string{"stratbench"}) {
		t.Errorf("paths %v, want [stratbench]", bf.Paths)
	}
}

// TestBenchmarkFileMatchesDriver checks, in both directions, that the
// workloads and metrics BENCHMARK.json declares are the ones the driver
// runs and emits, with the same units, directions and bounds.
func TestBenchmarkFileMatchesDriver(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var declaredW, drivenW []string
	for _, w := range bf.Workloads {
		declaredW = append(declaredW, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		drivenW = append(drivenW, w.name+": "+w.why)
	}
	if !slices.Equal(declaredW, drivenW) {
		t.Errorf("workloads differ:\ndeclared %q\ndriver   %q", declaredW, drivenW)
	}
	var declared []metricDef
	for _, m := range bf.EndToEnd {
		declared = append(declared, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	if !slices.Equal(declared, endToEndMetrics) {
		t.Errorf("end-to-end metrics differ:\ndeclared %v\ndriver   %v", declared, endToEndMetrics)
	}
	declared = nil
	for _, m := range bf.PerLayer {
		declared = append(declared, metricDef{name: m.Name, unit: m.Unit, better: m.Better})
	}
	if !slices.Equal(declared, perLayerMetrics) {
		t.Errorf("per-layer metrics differ:\ndeclared %v\ndriver   %v", declared, perLayerMetrics)
	}
}
