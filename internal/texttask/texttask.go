// Package texttask simulates the collaborative text-editing tasks of the
// paper's real-data experiments (Section 5.1): sentence translation
// (English nursery rhymes to Hindi in the paper) and text creation (short
// essays on a given topic). It is part of the AMT substitution described
// under "Paper fidelity" in README.md: crowd workers become simulated
// contributors that apply edits to a shared document under a deployment
// strategy's Structure and Organization, a simulated domain expert scores
// the result, and the edit history exposes the "edit war" phenomenon the
// paper observed when unguided workers collaborate simultaneously.
//
// The simulation is calibrated: every contributor writes each word
// correctly with a probability derived from the ambient ground-truth
// quality, so the expert's score is an unbiased estimate of the
// ground-truth linear model the paper fitted (Table 6), while conflicts in
// unguided simultaneous-collaborative sessions depress the realized quality
// exactly the way Section 5.1.2 reports.
package texttask

import (
	"fmt"
	"math/rand"
	"strings"

	"stratrec/internal/strategy"
)

// Kind is the task type.
type Kind int

const (
	// Translation translates a short source text.
	Translation Kind = iota
	// Creation writes a few sentences on a topic.
	Creation
)

func (k Kind) String() string {
	switch k {
	case Translation:
		return "sentence-translation"
	case Creation:
		return "text-creation"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Task is one unit of work: a source text to translate, or a topic with
// reference sentences to write about.
type Task struct {
	Kind  Kind
	Title string
	// Lines is the source text (translation) or the reference outline
	// (creation), one sentence per line.
	Lines []string
}

// SampleTranslationTasks returns the paper's three nursery rhymes.
func SampleTranslationTasks() []Task {
	return []Task{
		{Kind: Translation, Title: "Mary Had a Little Lamb", Lines: []string{
			"Mary had a little lamb little lamb little lamb",
			"Mary had a little lamb its fleece was white as snow",
			"Everywhere that Mary went Mary went Mary went",
			"Everywhere that Mary went the lamb was sure to go",
		}},
		{Kind: Translation, Title: "Lavender's Blue", Lines: []string{
			"Lavender's blue dilly dilly",
			"Lavender's green",
			"When you are king dilly dilly",
			"I shall be queen",
		}},
		{Kind: Translation, Title: "Rock-a-bye Baby", Lines: []string{
			"Rock-a-bye baby in the treetop",
			"When the wind blows the cradle will rock",
			"When the bough breaks the cradle will fall",
			"And down will come baby cradle and all",
		}},
	}
}

// SampleCreationTasks returns the paper's three text-creation topics.
func SampleCreationTasks() []Task {
	return []Task{
		{Kind: Creation, Title: "Robert Mueller Report", Lines: []string{
			"The report documents the findings of the special counsel investigation",
			"It examines interference in the 2016 presidential election",
			"Thirty four individuals were indicted by investigators",
			"The report was submitted to the attorney general in March 2019",
			"It does not conclude that a crime was committed nor exonerate",
		}},
		{Kind: Creation, Title: "Notre Dame Cathedral", Lines: []string{
			"The cathedral is a medieval landmark on an island in Paris",
			"A structural fire broke out under the roof in April 2019",
			"The spire and most of the roof were destroyed in the blaze",
			"Donations for reconstruction exceeded eight hundred million euros",
			"Restoration work aims to preserve the original gothic design",
		}},
		{Kind: Creation, Title: "2019 Pulitzer Prizes", Lines: []string{
			"The prizes honor achievements in journalism letters and music",
			"The 2019 ceremony recognized coverage of mass shootings",
			"A special citation honored the staff of a Maryland newsroom",
			"The fiction award went to a novel about trees and activism",
			"Winners were announced at Columbia University in April",
		}},
	}
}

// Contributor is one simulated crowd worker participating in a session.
type Contributor struct {
	ID    string
	Skill float64 // [0,1], shifts the worker's correctness around the base
	Speed float64 // relative working speed, ~1.0
}

// Edit is one recorded document modification.
type Edit struct {
	Worker   string
	Line     int
	Revision int  // revision number of the line after this edit
	Conflict bool // true when the edit overrode a fresh concurrent edit
}

// Document is the shared (or per-worker) artifact a session produces.
type Document struct {
	// Correct[line][word] records whether the expert will judge the word
	// correct (faithfully translated / on topic).
	Correct [][]bool
	// Text holds the rendered lines, for human inspection.
	Text    []string
	History []Edit
}

// WordCount returns the total number of scored words.
func (d *Document) WordCount() int {
	n := 0
	for _, line := range d.Correct {
		n += len(line)
	}
	return n
}

// ExpertScore is the simulated domain expert's quality judgment: the
// fraction of correct words, the percentage-style score the paper's experts
// produced.
func (d *Document) ExpertScore() float64 {
	total, correct := 0, 0
	for _, line := range d.Correct {
		for _, ok := range line {
			total++
			if ok {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// MachineTranslator is the Google-Translate stand-in for HYB strategies: a
// deterministic translator with a fixed expected quality.
type MachineTranslator struct {
	// Quality is the per-word correctness probability of the machine
	// output. The paper's hybrid baseline is decent but below a skilled
	// crowd; 0.72 by default.
	Quality float64
}

// NewMachineTranslator returns the default machine translator.
func NewMachineTranslator() MachineTranslator { return MachineTranslator{Quality: 0.72} }

// Translate renders a machine translation of line and reports per-word
// correctness using rng.
func (mt MachineTranslator) Translate(line string, rng *rand.Rand) ([]bool, string) {
	words := strings.Fields(line)
	correct := make([]bool, len(words))
	out := make([]string, len(words))
	for i, w := range words {
		correct[i] = rng.Float64() < mt.Quality
		if correct[i] {
			out[i] = "mt:" + w
		} else {
			out[i] = "mt:~" + w
		}
	}
	return correct, strings.Join(out, " ")
}

// SessionConfig controls how a session executes.
type SessionConfig struct {
	// Dims is the deployment strategy's dimension combination; Structure
	// and Organization drive the edit dynamics, Style enables the machine
	// contribution.
	Dims strategy.Dimensions
	// Guided is true when the deployment follows a StratRec recommendation
	// (workers receive structure, organization and style instructions).
	// Unguided simultaneous-collaborative sessions develop edit wars.
	Guided bool
	// TeamCohesion is the formed team's cohesion in [0,1] (see the groups
	// package); cohesive teams collide less in collaborative sessions.
	// Zero means unknown and is treated as the neutral 0.5.
	TeamCohesion float64
	// BaseQuality is the ambient per-word correctness level, taken from
	// the ground-truth linear model at the session's worker availability.
	BaseQuality float64
	// Machine is used when Dims.Style == Hybrid.
	Machine MachineTranslator
}

// Result summarizes a finished session.
type Result struct {
	Quality    float64 // expert score of the final document
	TotalEdits int     // total recorded edits
	Conflicts  int     // edits that overrode concurrent work
	AvgEdits   float64 // edits per line, the §5.1.2 edit-war metric
	Doc        *Document
}

// Conflict dynamics: per-edit probability that a worker overrides a
// concurrent fresh edit, by (structure, organization, guided).
const (
	conflictSeqProb         = 0.02 // sequential work rarely collides
	conflictSimIndProb      = 0.00 // independent parallel copies cannot collide
	conflictSimColGuided    = 0.12 // guided collaboration: occasional collisions
	conflictSimColUnguided  = 0.45 // unguided: the paper's edit war
	conflictQualityPenalty  = 0.30 // quality lost per unit conflict ratio
	conflictReworkMultiplie = 1.0  // extra rework edits per conflict
)

// RunSession executes a task under a strategy with the given contributors
// and returns the realized quality and edit statistics.
func RunSession(task Task, workers []Contributor, cfg SessionConfig, rng *rand.Rand) Result {
	if len(workers) == 0 {
		return Result{Doc: &Document{}}
	}
	switch {
	case cfg.Dims.Organization == strategy.Independent && cfg.Dims.Structure == strategy.Simultaneous:
		return runIndependentParallel(task, workers, cfg, rng)
	case cfg.Dims.Structure == strategy.Sequential:
		return runSequential(task, workers, cfg, rng)
	default: // simultaneous collaborative
		return runCollaborative(task, workers, cfg, rng)
	}
}

// effectiveSkill is the worker's per-word correctness probability.
func effectiveSkill(base float64, w Contributor, rng *rand.Rand) float64 {
	p := base + (w.Skill-0.5)*0.12 + rng.NormFloat64()*0.02
	return clamp01(p)
}

// writeLine renders one worker's version of a line.
func writeLine(line string, prob float64, worker string, rng *rand.Rand) ([]bool, string) {
	words := strings.Fields(line)
	correct := make([]bool, len(words))
	out := make([]string, len(words))
	for i, w := range words {
		correct[i] = rng.Float64() < prob
		if correct[i] {
			out[i] = worker + ":" + w
		} else {
			out[i] = worker + ":~" + w
		}
	}
	return correct, strings.Join(out, " ")
}

// seqRevisionRate is the fraction of words a proofreading pass re-examines.
const seqRevisionRate = 0.35

// runSequential: the first worker drafts every line; later workers
// proofread in turn (the Soylent-style pipeline), fixing wrong words with
// probability proportional to their skill and occasionally breaking correct
// ones. The steady state of that drift is the workers' ambient skill level,
// which keeps the expert score calibrated to the ground-truth model.
// Conflicts are rare because turns do not overlap.
func runSequential(task Task, workers []Contributor, cfg SessionConfig, rng *rand.Rand) Result {
	doc := &Document{Correct: make([][]bool, len(task.Lines)), Text: make([]string, len(task.Lines))}
	revision := make([]int, len(task.Lines))
	conflicts := 0
	for wi, w := range workers {
		p := effectiveSkill(cfg.BaseQuality, w, rng)
		for li, line := range task.Lines {
			conflict := wi > 0 && rng.Float64() < conflictSeqProb
			if conflict {
				conflicts++
			}
			if wi == 0 {
				doc.Correct[li], doc.Text[li] = writeLine(line, p, w.ID, rng)
			} else {
				// Each re-examined word ends up correct with the
				// reviewer's own reliability p — reviewers fix mistakes
				// but also break correct words they misjudge.
				for wd := range doc.Correct[li] {
					if rng.Float64() < seqRevisionRate {
						doc.Correct[li][wd] = rng.Float64() < p
					}
				}
			}
			revision[li]++
			doc.History = append(doc.History, Edit{Worker: w.ID, Line: li, Revision: revision[li], Conflict: conflict})
		}
	}
	applyHybrid(task, doc, cfg, rng, &revision)
	return finish(task, doc, conflicts)
}

// runIndependentParallel: every worker produces an independent copy and an
// evaluation step keeps the best one (Figure 2c/2d). No conflicts by
// construction.
func runIndependentParallel(task Task, workers []Contributor, cfg SessionConfig, rng *rand.Rand) Result {
	best := &Document{Correct: make([][]bool, len(task.Lines)), Text: make([]string, len(task.Lines))}
	bestScore := -1.0
	totalEdits := 0
	for _, w := range workers {
		doc := &Document{Correct: make([][]bool, len(task.Lines)), Text: make([]string, len(task.Lines))}
		p := effectiveSkill(cfg.BaseQuality, w, rng)
		for li, line := range task.Lines {
			doc.Correct[li], doc.Text[li] = writeLine(line, p, w.ID, rng)
			doc.History = append(doc.History, Edit{Worker: w.ID, Line: li, Revision: 1})
		}
		totalEdits += len(task.Lines)
		if s := doc.ExpertScore(); s > bestScore {
			bestScore = s
			best.Correct, best.Text = doc.Correct, doc.Text
		}
	}
	// The evaluation step (and optional machine entrant) happens on the
	// winning copy; reconstruct a history reflecting total effort.
	best.History = make([]Edit, 0, totalEdits)
	for i := 0; i < totalEdits; i++ {
		best.History = append(best.History, Edit{Worker: workers[i%len(workers)].ID, Line: i % len(task.Lines), Revision: 1})
	}
	if cfg.Dims.Style == strategy.Hybrid {
		machine := &Document{Correct: make([][]bool, len(task.Lines)), Text: make([]string, len(task.Lines))}
		for li, line := range task.Lines {
			machine.Correct[li], machine.Text[li] = cfg.Machine.Translate(line, rng)
		}
		if machine.ExpertScore() > best.ExpertScore() {
			best.Correct, best.Text = machine.Correct, machine.Text
		}
	}
	return finish(task, best, 0)
}

// runCollaborative: workers edit one shared document concurrently. Without
// guidance they repeatedly override each other (the paper's edit war):
// conflicting edits replace better lines with fresh drafts and trigger
// rework rounds, so quality drops and edit counts climb.
func runCollaborative(task Task, workers []Contributor, cfg SessionConfig, rng *rand.Rand) Result {
	doc := &Document{Correct: make([][]bool, len(task.Lines)), Text: make([]string, len(task.Lines))}
	revision := make([]int, len(task.Lines))
	conflictProb := conflictSimColGuided
	if !cfg.Guided {
		conflictProb = conflictSimColUnguided
	}
	// Cohesive teams step on each other less (groups package): scale the
	// collision probability by 1.25 - 0.5*cohesion, neutral at 0.5.
	cohesion := cfg.TeamCohesion
	if cohesion == 0 {
		cohesion = 0.5
	}
	conflictProb *= 1.25 - 0.5*cohesion
	conflicts := 0
	type job struct {
		worker Contributor
		line   int
	}
	var queue []job
	for li := range task.Lines {
		for _, w := range workers {
			queue = append(queue, job{worker: w, line: li})
		}
	}
	rng.Shuffle(len(queue), func(i, j int) { queue[i], queue[j] = queue[j], queue[i] })
	for qi := 0; qi < len(queue); qi++ {
		j := queue[qi]
		p := effectiveSkill(cfg.BaseQuality, j.worker, rng)
		li := j.line
		correct, text := writeLine(task.Lines[li], p, j.worker.ID, rng)
		conflict := revision[li] > 0 && rng.Float64() < conflictProb
		switch {
		case conflict:
			conflicts++
			// The override clobbers whatever was there, even if better,
			// and spawns a rework round for some other worker.
			doc.Correct[li], doc.Text[li] = correct, text
			if float64(len(queue)) < float64(len(workers)*len(task.Lines))*(1+conflictReworkMultiplie) {
				queue = append(queue, job{worker: workers[rng.Intn(len(workers))], line: li})
			}
		case doc.Correct[li] == nil:
			doc.Correct[li], doc.Text[li] = correct, text
		default:
			// A cooperative edit merges: each re-examined word ends up
			// correct with the editor's reliability, the same calibrated
			// drift as sequential proofreading.
			for wd := range doc.Correct[li] {
				if wd < len(correct) && rng.Float64() < seqRevisionRate {
					doc.Correct[li][wd] = correct[wd]
				}
			}
		}
		revision[li]++
		doc.History = append(doc.History, Edit{Worker: j.worker.ID, Line: li, Revision: revision[li], Conflict: conflict})
	}
	applyHybrid(task, doc, cfg, rng, &revision)
	res := finish(task, doc, conflicts)
	// Conflict churn costs quality beyond the clobbered lines (context is
	// lost between rework rounds).
	if res.TotalEdits > 0 {
		penalty := conflictQualityPenalty * float64(res.Conflicts) / float64(res.TotalEdits)
		res.Quality = clamp01(res.Quality - penalty)
	}
	return res
}

// applyHybrid lets the machine improve lines whose current state it beats.
func applyHybrid(task Task, doc *Document, cfg SessionConfig, rng *rand.Rand, revision *[]int) {
	if cfg.Dims.Style != strategy.Hybrid {
		return
	}
	for li, line := range task.Lines {
		correct, text := cfg.Machine.Translate(line, rng)
		if doc.Correct[li] == nil || score(correct) > score(doc.Correct[li]) {
			doc.Correct[li], doc.Text[li] = correct, text
			(*revision)[li]++
			doc.History = append(doc.History, Edit{Worker: "machine", Line: li, Revision: (*revision)[li]})
		}
	}
}

func finish(task Task, doc *Document, conflicts int) Result {
	res := Result{
		Quality:    doc.ExpertScore(),
		TotalEdits: len(doc.History),
		Conflicts:  conflicts,
		Doc:        doc,
	}
	if len(task.Lines) > 0 {
		res.AvgEdits = float64(res.TotalEdits) / float64(len(task.Lines))
	}
	return res
}

func score(correct []bool) float64 {
	if len(correct) == 0 {
		return 0
	}
	n := 0
	for _, ok := range correct {
		if ok {
			n++
		}
	}
	return float64(n) / float64(len(correct))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
