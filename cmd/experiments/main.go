// Command experiments regenerates the paper's tables and figures (Section
// 5) and prints them as text or markdown. The tests in
// internal/experiments assert each experiment's claim from the paper.
//
// Usage:
//
//	experiments                  # run everything at full scale
//	experiments -short           # trimmed sizes (seconds, for smoke tests)
//	experiments -run figure-14   # one experiment
//	experiments -list            # list experiment IDs
//	experiments -md              # markdown output
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"stratrec/internal/experiments"
)

func main() {
	var (
		runID    = flag.String("run", "", "run a single experiment by ID (see -list)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		short    = flag.Bool("short", false, "trimmed workload sizes")
		seed     = flag.Int64("seed", 2020, "random seed")
		runs     = flag.Int("runs", 0, "repetitions per data point (0 = experiment default)")
		markdown = flag.Bool("md", false, "render tables as markdown")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Short: *short, Runs: *runs}
	runners := experiments.All()
	if *runID != "" {
		r, ok := experiments.ByID(*runID)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown ID %q (known: %s)\n",
				*runID, strings.Join(experiments.IDs(), ", "))
			os.Exit(1)
		}
		runners = []experiments.Runner{r}
	}

	for _, r := range runners {
		start := time.Now()
		res, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		if *markdown {
			fmt.Printf("### %s\n\n%s\n\n", res.ID, res.Caption)
			for _, t := range res.Tables {
				fmt.Println(t.Markdown())
			}
		} else {
			fmt.Print(res.Render())
		}
		fmt.Printf("(%s finished in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}
