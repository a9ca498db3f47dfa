// Command crowdsim drives the simulated AMT marketplace, the substitution
// for the paper's real deployments ("Paper fidelity" in README.md): it
// runs repeated HIT deployments across the three weekly windows, writes
// the observation log as a store.History JSON file, and optionally fits
// the Section 3.1 linear models from that log — the full data pipeline a
// platform operator would run before wiring StratRec up.
//
// Usage:
//
//	crowdsim -out history.json              # simulate and dump the log
//	crowdsim -out history.json -fit         # also fit and print models
//	crowdsim -task creation -deploys 60     # text creation, more data
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"stratrec/internal/crowd"
	"stratrec/internal/store"
	"stratrec/internal/strategy"
)

func main() {
	var (
		out     = flag.String("out", "", "write the observation log to this JSON file (empty: stdout)")
		taskStr = flag.String("task", "translation", "task type: translation or creation")
		deploys = flag.Int("deploys", 40, "deployments per strategy per window")
		workers = flag.Int("workers", 10, "worker cap per HIT")
		seed    = flag.Int64("seed", 2020, "marketplace seed")
		fit     = flag.Bool("fit", false, "fit linear models from the log and print them")
	)
	flag.Parse()
	if err := run(*out, *taskStr, *deploys, *workers, *seed, *fit); err != nil {
		fmt.Fprintln(os.Stderr, "crowdsim:", err)
		os.Exit(1)
	}
}

func run(out, taskStr string, deploys, workers int, seed int64, fit bool) error {
	var task crowd.TaskType
	switch taskStr {
	case "translation":
		task = crowd.SentenceTranslation
	case "creation":
		task = crowd.TextCreation
	default:
		return fmt.Errorf("unknown task %q", taskStr)
	}
	if deploys < 1 || workers < 1 {
		return fmt.Errorf("deploys and workers must be positive")
	}

	m := crowd.NewMarketplace(crowd.Config{
		PoolSize:       1200,
		WindowActivity: [3]float64{0.60, 0.95, 0.75},
		ActivityJitter: 0.15,
	}, seed)

	strategies := []strategy.Dimensions{
		{Structure: strategy.Sequential, Organization: strategy.Independent, Style: strategy.CrowdOnly},
		{Structure: strategy.Simultaneous, Organization: strategy.Collaborative, Style: strategy.CrowdOnly},
	}
	var history store.History
	for _, dims := range strategies {
		for _, win := range crowd.StandardWindows() {
			for i := 0; i < deploys; i++ {
				outcome, err := m.Deploy(crowd.HIT{
					Task: task, Dims: dims, Window: win,
					MaxWorkers: workers, PayPerWorker: 2, Guided: true,
				})
				if err != nil {
					return err
				}
				if outcome.WorkersRecruited == 0 {
					continue
				}
				history.Observations = append(history.Observations, store.Observation{
					Strategy:     dims.String(),
					Window:       win.Name,
					Availability: outcome.Availability,
					Quality:      outcome.Quality,
					Cost:         outcome.Cost,
					Latency:      outcome.Latency,
				})
			}
		}
	}

	if out == "" {
		if err := store.Write(os.Stdout, history); err != nil {
			return err
		}
	} else {
		if err := store.Save(out, history); err != nil {
			return err
		}
		fmt.Printf("wrote %d observations to %s\n", len(history.Observations), out)
	}

	if fit {
		fits, err := history.FitModels(10)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(fits))
		for name := range fits {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("\nfitted models (alpha, beta):")
		for _, name := range names {
			pm := fits[name]
			fmt.Printf("  %-12s quality=(%.2f, %.2f) cost=(%.2f, %.2f) latency=(%.2f, %.2f)\n",
				name, pm.Quality.Alpha, pm.Quality.Beta,
				pm.Cost.Alpha, pm.Cost.Beta, pm.Latency.Alpha, pm.Latency.Beta)
		}
	}
	return nil
}
