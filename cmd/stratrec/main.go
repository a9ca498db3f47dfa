// Command stratrec runs the StratRec middle layer over a batch of
// deployment requests: it recommends k strategies for every satisfiable
// request and alternative deployment parameters (via ADPaR) for the rest.
// The serve subcommand hosts the same engine as a long-running
// multi-tenant HTTP service (see internal/server).
//
// Usage:
//
//	stratrec [flags]                 # run the paper's running example
//	stratrec -input batch.json       # run a batch from a JSON file
//	stratrec serve [flags]           # multi-tenant HTTP server
//	stratrec serve -data-dir d       # durable server: WAL + checkpoints, crash recovery
//	stratrec conform [flags]         # end-to-end differential conformance harness
//	stratrec conform -replay f.json  # replay a minimized failure trace
//	stratrec conform -profile crash-recovery  # kill/restart differential oracle
//	stratrec recover -data-dir d     # inspect a durability dir; -verify replays it
//	stratrec admin tenant create|drain|status  # runtime tenant admin on a live server
//
// The input file format:
//
//	{
//	  "workforce": 0.8,
//	  "strategies": [
//	    {"name": "s1", "quality": 0.5, "cost": 0.25, "latency": 0.28,
//	     "models": {"quality": {"alpha": 0.2, "beta": 0.34}, ...}},
//	    ...
//	  ],
//	  "requests": [
//	    {"id": "d1", "quality": 0.4, "cost": 0.17, "latency": 0.28, "k": 3},
//	    ...
//	  ]
//	}
//
// Strategies without explicit models get linear models anchored at their
// parameters for the given workforce (the Section 3.1 default).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"stratrec/internal/batch"
	"stratrec/internal/core"
	"stratrec/internal/linmodel"
	"stratrec/internal/strategy"
	"stratrec/internal/workforce"
)

type inputStrategy struct {
	Name    string  `json:"name"`
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
	Latency float64 `json:"latency"`
	Models  *struct {
		Quality linmodel.Model `json:"quality"`
		Cost    linmodel.Model `json:"cost"`
		Latency linmodel.Model `json:"latency"`
	} `json:"models,omitempty"`
}

type inputRequest struct {
	ID      string  `json:"id"`
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
	Latency float64 `json:"latency"`
	K       int     `json:"k"`
}

type input struct {
	Workforce  float64         `json:"workforce"`
	Strategies []inputStrategy `json:"strategies"`
	Requests   []inputRequest  `json:"requests"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "stratrec serve:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "conform" {
		if err := runConform(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "stratrec conform:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "admin" {
		if err := runAdmin(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "stratrec admin:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "recover" {
		if err := runRecover(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "stratrec recover:", err)
			os.Exit(1)
		}
		return
	}
	var (
		inputPath = flag.String("input", "", "JSON batch file; empty runs the paper's running example")
		objective = flag.String("objective", "throughput", "platform goal: throughput or payoff")
		mode      = flag.String("mode", "max", "workforce aggregation: sum (deploy all k) or max (deploy one of k)")
		workF     = flag.Float64("workforce", -1, "override available workforce W in [0,1]")
		adparPar  = flag.Int("adpar-parallelism", 0, "ADPaR sweep workers: 0 auto (GOMAXPROCS), 1 sequential")
	)
	flag.Parse()

	if err := run(*inputPath, *objective, *mode, *workF, *adparPar); err != nil {
		fmt.Fprintln(os.Stderr, "stratrec:", err)
		os.Exit(1)
	}
}

// intFlag is an integer flag's name, its parsed value and the least value
// it accepts.
type intFlag struct {
	name     string
	val, min int
}

// atLeast refuses the first flag below its least value, naming it, so a
// count the library would read as its default or cannot honour fails
// before any work starts.
func atLeast(flags ...intFlag) error {
	for _, f := range flags {
		if f.val < f.min {
			return fmt.Errorf("-%s must be at least %d, got %d", f.name, f.min, f.val)
		}
	}
	return nil
}

func run(inputPath, objective, mode string, overrideW float64, adparParallelism int) error {
	var (
		set    strategy.Set
		models workforce.PerStrategyModels
		reqs   []strategy.Request
		W      float64
	)
	if inputPath == "" {
		set = strategy.PaperExampleStrategies()
		reqs = strategy.PaperExampleRequests()
		W = 0.8
		models = defaultModels(set, W)
		fmt.Println("(no -input given: running the paper's Table 1 example at W = 0.8)")
	} else {
		data, err := os.ReadFile(inputPath)
		if err != nil {
			return err
		}
		var in input
		if err := json.Unmarshal(data, &in); err != nil {
			return fmt.Errorf("parsing %s: %w", inputPath, err)
		}
		W = in.Workforce
		for i, s := range in.Strategies {
			set = append(set, strategy.Strategy{
				ID: i, Name: s.Name,
				Params: strategy.Params{Quality: s.Quality, Cost: s.Cost, Latency: s.Latency},
			})
		}
		models = make(workforce.PerStrategyModels, len(set))
		defaults := defaultModels(set, W)
		for i, s := range in.Strategies {
			if s.Models != nil {
				models[i] = linmodel.ParamModels{Quality: s.Models.Quality, Cost: s.Models.Cost, Latency: s.Models.Latency}
			} else {
				models[i] = defaults[i]
			}
		}
		for _, r := range in.Requests {
			reqs = append(reqs, strategy.Request{
				ID:     r.ID,
				Params: strategy.Params{Quality: r.Quality, Cost: r.Cost, Latency: r.Latency},
				K:      r.K,
			})
		}
	}
	if overrideW >= 0 {
		W = overrideW
	}

	cfg := core.Config{ADPaRParallelism: adparParallelism}
	switch objective {
	case "throughput":
		cfg.Objective = batch.Throughput
	case "payoff":
		cfg.Objective = batch.Payoff
	default:
		return fmt.Errorf("unknown objective %q", objective)
	}
	switch mode {
	case "sum":
		cfg.Mode = workforce.SumCase
	case "max":
		cfg.Mode = workforce.MaxCase
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}

	sr, err := core.New(set, models, cfg)
	if err != nil {
		return err
	}
	report, err := sr.Recommend(reqs, W)
	if err != nil {
		return err
	}

	fmt.Printf("\nBatch of %d requests, %d strategies, W = %.2f, objective = %s, mode = %s\n\n",
		len(reqs), len(set), W, objective, mode)
	fmt.Printf("Satisfied (%d), objective value %.3f, workforce used %.3f:\n",
		len(report.Satisfied), report.Objective, report.WorkforceUsed)
	for _, rec := range report.Satisfied {
		fmt.Printf("  %-4s workforce %.3f, strategies:", reqs[rec.Request].ID, rec.Workforce)
		for _, id := range rec.Strategies {
			fmt.Printf(" %s", name(set[id]))
		}
		fmt.Println()
	}
	fmt.Printf("\nUnsatisfied (%d), with ADPaR alternatives:\n", len(report.Alternatives))
	for _, alt := range report.Alternatives {
		fmt.Printf("  %-4s %s\n", reqs[alt.Request].ID, alt.Reason)
		if alt.HasSolution {
			a := alt.Solution.Alternative
			fmt.Printf("       alternative: quality>=%.2f cost<=%.2f latency<=%.2f (distance %.3f), strategies:",
				a.Quality, a.Cost, a.Latency, alt.Solution.Distance)
			for _, id := range alt.Solution.Strategies(reqs[alt.Request].K) {
				fmt.Printf(" %s", name(set[id]))
			}
			fmt.Println()
		}
	}
	return nil
}

// defaultModels anchors linear models at each strategy's parameters for the
// ambient workforce: quality grows toward the advertised value, cost and
// latency shrink toward it.
func defaultModels(set strategy.Set, W float64) workforce.PerStrategyModels {
	models := make(workforce.PerStrategyModels, len(set))
	for i, s := range set {
		models[i] = anchoredModels(s.Params, W)
	}
	return models
}

func name(s strategy.Strategy) string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("s%d", s.ID+1)
}
