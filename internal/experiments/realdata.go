package experiments

import (
	"fmt"
	"math/rand"

	"stratrec/internal/availability"
	"stratrec/internal/batch"
	"stratrec/internal/core"
	"stratrec/internal/crowd"
	"stratrec/internal/linmodel"
	"stratrec/internal/linreg"
	"stratrec/internal/stats"
	"stratrec/internal/strategy"
	"stratrec/internal/workforce"
)

// The real-data experiments of Section 5.1, run against the simulated AMT
// marketplace (README.md, "Paper fidelity").

func seqIndCro() strategy.Dimensions {
	return strategy.Dimensions{Structure: strategy.Sequential, Organization: strategy.Independent, Style: strategy.CrowdOnly}
}

func simColCro() strategy.Dimensions {
	return strategy.Dimensions{Structure: strategy.Simultaneous, Organization: strategy.Collaborative, Style: strategy.CrowdOnly}
}

// Figure11 estimates worker availability per deployment window for the two
// studied strategies, with standard errors over repeated deployments.
func Figure11(cfg Config) (Result, error) {
	m := crowd.NewMarketplace(crowd.DefaultConfig(), cfg.Seed+11)
	repeats := cfg.runs(10)
	t := Table{
		Title:   "Figure 11: worker availability estimation per deployment window",
		Columns: []string{"strategy", "window-1", "window-2", "window-3"},
	}
	for _, sc := range []struct {
		name string
		dims strategy.Dimensions
	}{
		{"Seq-IC", seqIndCro()},
		{"Sim-CC", simColCro()},
	} {
		pdfs, err := m.EstimateAvailability(crowd.SentenceTranslation, sc.dims, 10, repeats)
		if err != nil {
			return Result{}, err
		}
		cells := []string{sc.name}
		for _, pdf := range pdfs {
			cells = append(cells, fmt.Sprintf("%.2f±%.2f", pdf.Expected(), pdfStdErr(pdf)))
		}
		t.AddRow(cells...)
	}
	return Result{
		ID: "figure-11",
		Caption: "Worker availability varies over time and is estimable from repeated " +
			"deployments; window 2 (Mon-Thu) is the busiest, as the paper observed.",
		Tables: []Table{t},
	}, nil
}

func pdfStdErr(p *availability.PDF) float64 {
	n := len(p.Outcomes())
	if n < 2 {
		return 0
	}
	// Outcomes are equally likely observations; Variance is the population
	// variance, convert to the standard error of the mean.
	return p.Variance() * float64(n) / float64(n-1) / float64(n)
}

// taskStrategyPanels are the four panels of Figure 12 / rows of Table 6.
var taskStrategyPanels = []struct {
	name string
	task crowd.TaskType
	dims func() strategy.Dimensions
}{
	{"Translation SEQ-IND-CRO", crowd.SentenceTranslation, seqIndCro},
	{"Translation SIM-COL-CRO", crowd.SentenceTranslation, simColCro},
	{"Creation SEQ-IND-CRO", crowd.TextCreation, seqIndCro},
	{"Creation SIM-COL-CRO", crowd.TextCreation, simColCro},
}

// collectObservations deploys a (task, strategy) repeatedly across windows
// with spread-out activity and returns (availability, quality, cost,
// latency) samples.
func collectObservations(cfg Config, seed int64, task crowd.TaskType, dims strategy.Dimensions) (avail, quality, cost, latency []float64) {
	m := crowd.NewMarketplace(crowd.Config{
		PoolSize:       1200,
		WindowActivity: [3]float64{0.60, 0.95, 0.75},
		ActivityJitter: 0.15,
	}, seed)
	per := cfg.runs(40)
	for _, win := range crowd.StandardWindows() {
		for i := 0; i < per; i++ {
			out, err := m.Deploy(crowd.HIT{
				Task: task, Dims: dims, Window: win,
				MaxWorkers: 10, PayPerWorker: 2, Guided: true,
			})
			if err != nil || out.WorkersRecruited == 0 {
				continue
			}
			avail = append(avail, out.Availability)
			quality = append(quality, out.Quality)
			cost = append(cost, out.Cost)
			latency = append(latency, out.Latency)
		}
	}
	return avail, quality, cost, latency
}

// Figure12 reports the relationship between deployment parameters and
// worker availability for the four task-strategy panels, as binned series.
func Figure12(cfg Config) (Result, error) {
	var tables []Table
	for pi, panel := range taskStrategyPanels {
		avail, quality, cost, latency := collectObservations(cfg, cfg.Seed+int64(100+pi), panel.task, panel.dims())
		t := Table{
			Title:   "Figure 12: " + panel.name,
			Columns: []string{"availability", "quality", "cost", "latency", "n"},
		}
		// Bin by availability like the paper's x-axis.
		bins := []float64{0.55, 0.65, 0.75, 0.85, 0.95, 1.01}
		for b := 0; b+1 < len(bins)+1; b++ {
			lo := 0.0
			if b > 0 {
				lo = bins[b-1]
			}
			hi := 1.02
			if b < len(bins) {
				hi = bins[b]
			}
			var qs, cs, ls, as []float64
			for i, a := range avail {
				if a >= lo && a < hi {
					as = append(as, a)
					qs = append(qs, quality[i])
					cs = append(cs, cost[i])
					ls = append(ls, latency[i])
				}
			}
			if len(as) == 0 {
				continue
			}
			t.AddRow(f2(stats.Mean(as)), f2(stats.Mean(qs)), f2(stats.Mean(cs)), f2(stats.Mean(ls)),
				fmt.Sprintf("%d", len(as)))
		}
		tables = append(tables, t)
	}
	return Result{
		ID: "figure-12",
		Caption: "Quality and cost increase linearly with worker availability; latency " +
			"decreases — the linearity assumption behind Equation 4.",
		Tables: tables,
	}, nil
}

// Table6 fits the (alpha, beta) linear models from simulated deployments
// and compares them against the paper's estimates (which seed the
// simulator's ground truth).
func Table6(cfg Config) (Result, error) {
	gt := crowd.PaperGroundTruth()
	t := Table{
		Title:   "Table 6: fitted (alpha, beta) per task-strategy-parameter, vs paper",
		Columns: []string{"task-strategy", "parameter", "alpha", "beta", "paper alpha", "paper beta", "R2", "signif@90%"},
	}
	for pi, panel := range taskStrategyPanels {
		avail, quality, cost, latency := collectObservations(cfg, cfg.Seed+int64(200+pi), panel.task, panel.dims())
		pm := gt[crowd.ModelKey{Task: panel.task, Dims: panel.dims()}]
		for _, row := range []struct {
			param string
			ys    []float64
			truth linmodel.Model
		}{
			{"Quality", quality, pm.Quality},
			{"Cost", cost, pm.Cost},
			{"Latency", latency, pm.Latency},
		} {
			fit, err := linreg.OLS(avail, row.ys)
			if err != nil {
				return Result{}, err
			}
			t.AddRow(panel.name, row.param, f2(fit.Alpha), f2(fit.Beta),
				f2(row.truth.Alpha), f2(row.truth.Beta), f2(fit.R2),
				fmt.Sprintf("%v", fit.SignificantAt(0.10)))
		}
	}
	return Result{
		ID: "table-6",
		Caption: "Regressing measured parameters on measured availability recovers the " +
			"seeded Table 6 models (latency/cost tightly; quality's shallow slope with " +
			"wider noise), and slopes are significant at the 90% level.",
		Tables: []Table{t},
	}, nil
}

// Figure13 runs the Section 5.1.2 effectiveness study: mirrored deployments
// of 10 translation and 10 creation tasks, one following a StratRec
// recommendation and one unguided, under thresholds (70% quality, $14 cost,
// 72h latency).
func Figure13(cfg Config) (Result, error) {
	var tables []Table
	summaryRows := map[string]bool{}
	for ti, task := range []crowd.TaskType{crowd.SentenceTranslation, crowd.TextCreation} {
		m := crowd.NewMarketplace(crowd.DefaultConfig(), cfg.Seed+int64(300+ti))
		rng := rand.New(rand.NewSource(cfg.Seed + int64(400+ti)))

		// Build the requester-facing strategy set: all eight dimension
		// combinations with parameters estimated from the fitted models at
		// the estimated availability.
		pdfs, err := m.EstimateAvailability(task, seqIndCro(), 10, cfg.runs(3))
		if err != nil {
			return Result{}, err
		}
		W := 0.0
		for _, pdf := range pdfs {
			W += pdf.Expected()
		}
		W /= float64(len(pdfs))
		gt := crowd.PaperGroundTruth()
		var set strategy.Set
		var models workforce.PerStrategyModels
		for _, dims := range strategy.AllDimensions() {
			pm, ok := gt[crowd.ModelKey{Task: task, Dims: dims}]
			if !ok {
				// Borrow the nearest measured curve, as the simulator does.
				if dims.Organization == strategy.Collaborative {
					pm = gt[crowd.ModelKey{Task: task, Dims: simColCro()}]
				} else {
					pm = gt[crowd.ModelKey{Task: task, Dims: seqIndCro()}]
				}
			}
			set = append(set, strategy.Strategy{
				ID: len(set), Name: dims.String(), Dims: dims,
				Params: pm.ParamsAt(W),
			})
			models = append(models, pm)
		}
		sr, err := core.New(set, models, core.Config{Objective: batch.Throughput, Mode: workforce.MaxCase})
		if err != nil {
			return Result{}, err
		}

		// The paper's thresholds: quality >= 70%, cost <= $14 (7 workers x
		// $2, normalized 1.0), latency <= 72h (normalized 1.0).
		request := strategy.Request{
			ID:     "mirror",
			Params: strategy.Params{Quality: 0.70, Cost: 1.0, Latency: 1.0},
			K:      3,
		}
		report, err := sr.Recommend([]strategy.Request{request}, W)
		if err != nil {
			return Result{}, err
		}
		recommended := seqIndCro()
		if len(report.Satisfied) > 0 && len(report.Satisfied[0].Strategies) > 0 {
			recommended = set[report.Satisfied[0].Strategies[0]].Dims
		}

		const deployments = 10
		var gq, gc, gl, ge, uq, uc, ul, ue []float64
		wins := crowd.StandardWindows()
		for i := 0; i < deployments; i++ {
			win := wins[rng.Intn(len(wins))]
			guided, err := m.Deploy(crowd.HIT{
				Task: task, Dims: recommended, Window: win,
				MaxWorkers: 7, PayPerWorker: 2, Guided: true,
			})
			if err != nil {
				return Result{}, err
			}
			// The mirror deployment: no structure/organization/style
			// guidance; workers self-organize into a simultaneous
			// collaborative free-for-all.
			unguided, err := m.Deploy(crowd.HIT{
				Task: task, Dims: simColCro(), Window: win,
				MaxWorkers: 7, PayPerWorker: 2, Guided: false,
			})
			if err != nil {
				return Result{}, err
			}
			gq, gc, gl, ge = append(gq, guided.Quality), append(gc, guided.Cost), append(gl, guided.Latency), append(ge, guided.AvgEdits)
			uq, uc, ul, ue = append(uq, unguided.Quality), append(uc, unguided.Cost), append(ul, unguided.Latency), append(ue, unguided.AvgEdits)
		}

		t := Table{
			Title:   fmt.Sprintf("Figure 13: %v (recommended %v, %d mirrored deployments)", task, recommended, deployments),
			Columns: []string{"metric", "StratRec", "without StratRec", "p-value"},
		}
		for _, row := range []struct {
			name string
			a, b []float64
		}{
			{"Quality (%)", scale(gq, 100), scale(uq, 100)},
			{"Cost (%)", scale(gc, 100), scale(uc, 100)},
			{"Latency (%)", scale(gl, 100), scale(ul, 100)},
			{"Avg edits", ge, ue},
		} {
			tt, err := stats.WelchTTest(row.a, row.b)
			if err != nil {
				return Result{}, err
			}
			t.AddRow(row.name, f2(tt.MeanA), f2(tt.MeanB), fmt.Sprintf("%.4f", tt.P))
		}
		tables = append(tables, t)
		summaryRows[task.String()] = true
	}
	_ = sortedKeys(summaryRows)
	return Result{
		ID: "figure-13",
		Caption: "Deployments guided by StratRec achieve higher quality and lower latency " +
			"at comparable cost, and unguided collaboration shows the edit-war excess " +
			"(Section 5.1.2 reports 3.45 vs 6.25 average edits).",
		Tables: tables,
	}, nil
}

func scale(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}
