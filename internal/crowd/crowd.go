// Package crowd simulates the crowdsourcing marketplace of the paper's
// real-data experiments (Section 5.1): a worker pool with skills,
// qualification attributes and time-varying availability; HIT deployment
// under a strategy; and measurement of the resulting quality, cost and
// latency. It is the platform half of the AMT substitution described under
// "Paper fidelity" in README.md (the task half lives in texttask).
//
// The simulator is seeded with the ground-truth linear models the paper
// measured (Table 6), so the estimation pipeline — observe availability,
// deploy, measure, fit — recovers those models the same way the paper's
// AMT deployments did.
package crowd

import (
	"fmt"
	"math/rand"
	"time"

	"stratrec/internal/availability"
	"stratrec/internal/linmodel"
	"stratrec/internal/strategy"
)

// TaskType identifies the two text-editing task families of Section 5.1.
type TaskType int

const (
	// SentenceTranslation translates nursery rhymes (English to Hindi in
	// the paper).
	SentenceTranslation TaskType = iota
	// TextCreation writes 4-5 sentences on a topic.
	TextCreation
)

func (t TaskType) String() string {
	switch t {
	case SentenceTranslation:
		return "translation"
	case TextCreation:
		return "creation"
	}
	return fmt.Sprintf("TaskType(%d)", int(t))
}

// ModelKey identifies one (task type, strategy dimensions) ground-truth
// model.
type ModelKey struct {
	Task TaskType
	Dims strategy.Dimensions
}

// PaperGroundTruth returns the Table 6 (alpha, beta) estimates the
// simulator is seeded with: the empirically fitted linear relationship
// between worker availability and each deployment parameter, per task type
// and strategy.
func PaperGroundTruth() map[ModelKey]linmodel.ParamModels {
	seqIndCro := strategy.Dimensions{Structure: strategy.Sequential, Organization: strategy.Independent, Style: strategy.CrowdOnly}
	simColCro := strategy.Dimensions{Structure: strategy.Simultaneous, Organization: strategy.Collaborative, Style: strategy.CrowdOnly}
	return map[ModelKey]linmodel.ParamModels{
		{Task: SentenceTranslation, Dims: seqIndCro}: {
			Quality: linmodel.Model{Alpha: 0.09, Beta: 0.85},
			Cost:    linmodel.Model{Alpha: 1.00, Beta: 0.00},
			Latency: linmodel.Model{Alpha: -0.98, Beta: 1.40},
		},
		{Task: SentenceTranslation, Dims: simColCro}: {
			Quality: linmodel.Model{Alpha: 0.09, Beta: 0.82},
			Cost:    linmodel.Model{Alpha: 0.82, Beta: 0.17},
			Latency: linmodel.Model{Alpha: -0.63, Beta: 1.01},
		},
		{Task: TextCreation, Dims: seqIndCro}: {
			Quality: linmodel.Model{Alpha: 0.10, Beta: 0.80},
			Cost:    linmodel.Model{Alpha: 1.00, Beta: 0.00},
			Latency: linmodel.Model{Alpha: -1.56, Beta: 2.04},
		},
		{Task: TextCreation, Dims: simColCro}: {
			Quality: linmodel.Model{Alpha: 0.19, Beta: 0.70},
			Cost:    linmodel.Model{Alpha: 1.00, Beta: -0.00},
			Latency: linmodel.Model{Alpha: -1.38, Beta: 1.81},
		},
	}
}

// groundTruthFor falls back to the nearest measured strategy for dimension
// combinations the paper did not deploy: collaborative organizations borrow
// the SIM-COL-CRO models, everything else borrows SEQ-IND-CRO, and hybrid
// styles keep the crowd-only curves (the machine contribution enters
// through the task simulation).
func groundTruthFor(task TaskType, dims strategy.Dimensions) linmodel.ParamModels {
	gt := PaperGroundTruth()
	lookup := dims
	lookup.Style = strategy.CrowdOnly
	if pm, ok := gt[ModelKey{Task: task, Dims: lookup}]; ok {
		return pm
	}
	if dims.Organization == strategy.Collaborative {
		lookup = strategy.Dimensions{Structure: strategy.Simultaneous, Organization: strategy.Collaborative, Style: strategy.CrowdOnly}
	} else {
		lookup = strategy.Dimensions{Structure: strategy.Sequential, Organization: strategy.Independent, Style: strategy.CrowdOnly}
	}
	return gt[ModelKey{Task: task, Dims: lookup}]
}

// Worker is one simulated crowd worker.
type Worker struct {
	ID           string
	Skills       map[TaskType]float64 // skill per task type, [0,1]
	ApprovalRate float64              // HIT approval rate, [0,1]
	Location     string               // "US" or "IN"
	HasDegree    bool                 // Bachelor's degree (text creation filter)
	// windowActivity is the probability of being active in each of the
	// three weekly deployment windows.
	windowActivity [3]float64
	// Speed is the relative working pace, ~1.0.
	Speed float64
}

// Qualification mirrors the paper's worker recruitment filters (Section
// 5.1.1): approval rate above 90%, locations, degree requirement, and an
// 80% qualification-test threshold.
type Qualification struct {
	Task            TaskType
	MinApprovalRate float64
	Locations       []string
	RequireDegree   bool
	MinTestScore    float64
}

// PaperQualification returns the paper's recruitment filter for a task.
func PaperQualification(task TaskType) Qualification {
	q := Qualification{
		Task:            task,
		MinApprovalRate: 0.90,
		MinTestScore:    0.80,
	}
	if task == SentenceTranslation {
		q.Locations = []string{"US", "IN"}
	} else {
		q.Locations = []string{"US"}
		q.RequireDegree = true
	}
	return q
}

// matches reports whether a worker passes the static filters.
func (q Qualification) matches(w Worker) bool {
	if w.ApprovalRate < q.MinApprovalRate {
		return false
	}
	if q.RequireDegree && !w.HasDegree {
		return false
	}
	if len(q.Locations) > 0 {
		ok := false
		for _, loc := range q.Locations {
			if w.Location == loc {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Config sizes and shapes the simulated marketplace.
type Config struct {
	// PoolSize is the total number of registered workers.
	PoolSize int
	// WindowActivity is the mean activity probability per deployment
	// window; the paper found window 2 (Mon-Thu) the busiest.
	WindowActivity [3]float64
	// ActivityJitter is the per-worker spread around the window means.
	ActivityJitter float64
}

// DefaultConfig returns a 1000-worker marketplace with the paper's
// mid-week activity peak.
func DefaultConfig() Config {
	return Config{
		PoolSize:       1000,
		WindowActivity: [3]float64{0.62, 0.80, 0.58},
		ActivityJitter: 0.10,
	}
}

// Marketplace is the simulated platform.
type Marketplace struct {
	cfg     Config
	workers []Worker
	rng     *rand.Rand
}

// NewMarketplace builds a reproducible marketplace from a seed.
func NewMarketplace(cfg Config, seed int64) *Marketplace {
	rng := rand.New(rand.NewSource(seed))
	m := &Marketplace{cfg: cfg, rng: rng}
	locations := []string{"US", "IN", "EU"}
	for i := 0; i < cfg.PoolSize; i++ {
		w := Worker{
			ID: fmt.Sprintf("w%04d", i),
			Skills: map[TaskType]float64{
				SentenceTranslation: clamp01(0.72 + rng.NormFloat64()*0.12),
				TextCreation:        clamp01(0.70 + rng.NormFloat64()*0.12),
			},
			ApprovalRate: clamp01(0.85 + rng.Float64()*0.15),
			Location:     locations[rng.Intn(len(locations))],
			HasDegree:    rng.Float64() < 0.55,
			Speed:        clamp(0.6, 1.6, 1.0+rng.NormFloat64()*0.2),
		}
		for win := 0; win < 3; win++ {
			w.windowActivity[win] = clamp01(cfg.WindowActivity[win] + rng.NormFloat64()*cfg.ActivityJitter)
		}
		m.workers = append(m.workers, w)
	}
	return m
}

// Qualified returns the workers passing a qualification's static filters
// and the simulated qualification test (skill plus noise against the test
// threshold).
func (m *Marketplace) Qualified(q Qualification) []Worker {
	var out []Worker
	for _, w := range m.workers {
		if !q.matches(w) {
			continue
		}
		testScore := clamp01(w.Skills[q.Task] + 0.12 + m.rng.NormFloat64()*0.05)
		if testScore >= q.MinTestScore {
			out = append(out, w)
		}
	}
	return out
}

// StandardWindows returns the paper's three deployment windows anchored at
// a fixed reference week: Window 1 Friday 12am - Monday 12am, Window 2
// Monday - Thursday, Window 3 Thursday - Sunday.
func StandardWindows() []availability.Window {
	// 2019-04-19 was a Friday.
	anchor := time.Date(2019, 4, 19, 0, 0, 0, 0, time.UTC)
	return []availability.Window{
		{Name: "window-1 (Fri-Mon)", Start: anchor, End: anchor.AddDate(0, 0, 3)},
		{Name: "window-2 (Mon-Thu)", Start: anchor.AddDate(0, 0, 3), End: anchor.AddDate(0, 0, 6)},
		{Name: "window-3 (Thu-Sun)", Start: anchor.AddDate(0, 0, 6), End: anchor.AddDate(0, 0, 9)},
	}
}

// windowIndex maps a window to its activity slot by matching the standard
// windows' order; unknown windows use slot 0.
func windowIndex(w availability.Window) int {
	for i, std := range StandardWindows() {
		if std.Name == w.Name {
			return i
		}
	}
	return 0
}

func clamp01(v float64) float64 { return clamp(0, 1, v) }

func clamp(lo, hi, v float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
