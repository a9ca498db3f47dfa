// Command stratbench is the StratRec serving benchmark. It builds an
// in-process server from seeded synthetic catalogs, drives it over
// loopback HTTP with at most two client goroutines, checks the outcome
// (every plan equals a fresh BatchStrat, every ack is counted and
// logged, recovery restores what was served) and prints every metric.
//
//	go run . -workload ingest-perop-small -seed 1
//	go run . -seed 1 -runs 5 -out results.json
//	go run . -workload query-open -seed 1 -trace 1 -spans spans.json
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) reports the per-layer metrics. The last line of
// standard output is one JSON object with correct, attempted, failed
// and metrics. The exit code is non-zero when a check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stratbench:", err)
		os.Exit(1)
	}
}

// errChecksFailed reports a completed run whose correctness checks failed.
var errChecksFailed = errors.New("correctness checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("stratbench", flag.ContinueOnError)
	var (
		names   = fs.String("workload", "", "comma-separated workloads (default: all)")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 20, "measured seconds per run")
		trace   = fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
		runs    = fs.Int("runs", 1, "runs per workload; more than one also prints median, quartiles and min/max")
		out     = fs.String("out", "", "write a results file with host facts to this path")
		spans   = fs.String("spans", "", "traced runs write their spans here (default: <workdir>/spans-<workload>.json)")
		workdir = fs.String("workdir", ".bench_build", "scratch directory for data dirs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 || *runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, n := range strings.Split(*names, ",") {
			w, err := findWorkload(strings.TrimSpace(n))
			if err != nil {
				return err
			}
			selected = append(selected, w)
		}
	}
	defs := endToEndMetrics
	if *trace == 1 {
		defs = perLayerMetrics
	}

	file := resultsFile{Seed: *seed, Seconds: *seconds, Traced: *trace == 1, Rounds: rounds,
		Summary: map[string]map[string]summary{}}
	final := finalLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir, spans: *spans}
		if o.trace && o.spans == "" {
			o.spans = filepath.Join(*workdir, "spans-"+w.name+".json")
		}
		var rs []result
		for range *runs {
			r, err := runWorkload(w, o)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			for _, d := range defs {
				fmt.Fprintf(stdout, "%s %s %.6g %s n=%d\n", w.name, d.name, r.Metrics[d.name], d.unit, r.Samples[d.name])
			}
			for _, f := range r.Failures {
				fmt.Fprintf(stdout, "%s CHECK FAILED: %s\n", w.name, f)
			}
			rs = append(rs, r)
			file.Runs = append(file.Runs, r)
		}
		file.Summary[w.name] = map[string]summary{}
		for _, d := range defs {
			var xs []float64
			for _, r := range rs {
				xs = append(xs, r.Metrics[d.name])
			}
			sm := summarize(xs)
			file.Summary[w.name][d.name] = sm
			if *runs > 1 {
				fmt.Fprintf(stdout, "%s %s median=%.6g q1=%.6g q3=%.6g min=%.6g max=%.6g %s runs=%d\n",
					w.name, d.name, sm.Median, sm.Q1, sm.Q3, sm.Min, sm.Max, d.unit, sm.N)
			}
			key := d.name
			if len(selected) > 1 {
				key = w.name + "/" + d.name
			}
			final.Metrics[key] = metricValue{Value: sm.Median, Unit: d.unit}
		}
		for _, r := range rs {
			final.Correct = final.Correct && r.Correct
			final.Attempted += r.Attempted
			final.Failed += r.Failed
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*workdir, 0o755); err != nil {
			return err
		}
		file.Host = collectHost(*workdir)
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return errChecksFailed
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultsFile is what -out writes: host facts, settings, every run and
// per-metric summaries across runs.
type resultsFile struct {
	Host    hostFacts                     `json:"host"`
	Seed    int64                         `json:"seed"`
	Seconds float64                       `json:"seconds"`
	Rounds  int                           `json:"rounds"`
	Traced  bool                          `json:"traced"`
	Runs    []result                      `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
}
