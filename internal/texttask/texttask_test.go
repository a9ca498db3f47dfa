package texttask

import (
	"math"
	"math/rand"
	"testing"

	"stratrec/internal/strategy"
)

func workers(n int, skill float64) []Contributor {
	ws := make([]Contributor, n)
	for i := range ws {
		ws[i] = Contributor{ID: string(rune('a' + i)), Skill: skill, Speed: 1}
	}
	return ws
}

func dims(st strategy.Structure, org strategy.Organization, sty strategy.Style) strategy.Dimensions {
	return strategy.Dimensions{Structure: st, Organization: org, Style: sty}
}

func TestSampleTasks(t *testing.T) {
	tr := SampleTranslationTasks()
	if len(tr) != 3 {
		t.Fatalf("translation tasks = %d, want 3", len(tr))
	}
	for _, task := range tr {
		if task.Kind != Translation || len(task.Lines) < 4 {
			t.Errorf("bad translation task %+v", task.Title)
		}
	}
	cr := SampleCreationTasks()
	if len(cr) != 3 {
		t.Fatalf("creation tasks = %d, want 3", len(cr))
	}
	for _, task := range cr {
		if task.Kind != Creation || len(task.Lines) != 5 {
			t.Errorf("bad creation task %+v", task.Title)
		}
	}
}

func TestKindString(t *testing.T) {
	if Translation.String() != "sentence-translation" || Creation.String() != "text-creation" {
		t.Error("kind strings")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind string")
	}
}

func TestExpertScore(t *testing.T) {
	doc := &Document{Correct: [][]bool{{true, true, false}, {true, false, false}}}
	if got := doc.ExpertScore(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ExpertScore = %v, want 0.5", got)
	}
	empty := &Document{}
	if got := empty.ExpertScore(); got != 0 {
		t.Errorf("empty ExpertScore = %v", got)
	}
}

func TestMachineTranslator(t *testing.T) {
	mt := MachineTranslator{Quality: 1}
	rng := rand.New(rand.NewSource(1))
	correct, text := mt.Translate("mary had a little lamb", rng)
	if len(correct) != 5 {
		t.Fatalf("words = %d", len(correct))
	}
	for _, ok := range correct {
		if !ok {
			t.Error("perfect translator produced an error")
		}
	}
	if text == "" {
		t.Error("empty rendering")
	}
	mt = MachineTranslator{Quality: 0}
	correct, _ = mt.Translate("mary had a lamb", rng)
	for _, ok := range correct {
		if ok {
			t.Error("zero-quality translator produced a correct word")
		}
	}
}

func TestRunSessionEmptyWorkers(t *testing.T) {
	task := SampleTranslationTasks()[0]
	res := RunSession(task, nil, SessionConfig{}, rand.New(rand.NewSource(1)))
	if res.TotalEdits != 0 || res.Quality != 0 {
		t.Errorf("empty session = %+v", res)
	}
}

func TestSequentialQualityTracksBase(t *testing.T) {
	task := SampleTranslationTasks()[0]
	rng := rand.New(rand.NewSource(2))
	var scores []float64
	for trial := 0; trial < 60; trial++ {
		res := RunSession(task, workers(5, 0.6), SessionConfig{
			Dims:        dims(strategy.Sequential, strategy.Independent, strategy.CrowdOnly),
			Guided:      true,
			BaseQuality: 0.85,
		}, rng)
		scores = append(scores, res.Quality)
	}
	mean := 0.0
	for _, s := range scores {
		mean += s
	}
	mean /= float64(len(scores))
	// Sequential proofreading keeps the best version per line, so the mean
	// lands at or a bit above the base level.
	if mean < 0.82 || mean > 0.99 {
		t.Errorf("sequential mean quality = %v, want near/above base 0.85", mean)
	}
}

func TestEditWarDynamics(t *testing.T) {
	// The Section 5.1.2 observation: unguided simultaneous-collaborative
	// deployments have more edits and lower quality than guided ones.
	task := SampleTranslationTasks()[1]
	simCol := dims(strategy.Simultaneous, strategy.Collaborative, strategy.CrowdOnly)
	rngG := rand.New(rand.NewSource(3))
	rngU := rand.New(rand.NewSource(4))
	var gEdits, uEdits, gQual, uQual float64
	const trials = 80
	for i := 0; i < trials; i++ {
		g := RunSession(task, workers(7, 0.6), SessionConfig{Dims: simCol, Guided: true, BaseQuality: 0.88}, rngG)
		u := RunSession(task, workers(7, 0.6), SessionConfig{Dims: simCol, Guided: false, BaseQuality: 0.88}, rngU)
		gEdits += g.AvgEdits
		uEdits += u.AvgEdits
		gQual += g.Quality
		uQual += u.Quality
	}
	gEdits, uEdits = gEdits/trials, uEdits/trials
	gQual, uQual = gQual/trials, uQual/trials
	if uEdits <= gEdits*1.2 {
		t.Errorf("edit war missing: unguided %v edits vs guided %v", uEdits, gEdits)
	}
	if uQual >= gQual-0.02 {
		t.Errorf("edit war should cost quality: unguided %v vs guided %v", uQual, gQual)
	}
}

func TestIndependentParallelPicksBest(t *testing.T) {
	task := SampleTranslationTasks()[2]
	rng := rand.New(rand.NewSource(5))
	// One strong worker among weak ones: evaluation keeps the best copy,
	// so quality should beat the weak workers' level.
	ws := workers(5, 0.2)
	ws[3].Skill = 0.95
	var mean float64
	const trials = 60
	for i := 0; i < trials; i++ {
		res := RunSession(task, ws, SessionConfig{
			Dims:        dims(strategy.Simultaneous, strategy.Independent, strategy.CrowdOnly),
			Guided:      true,
			BaseQuality: 0.7,
		}, rng)
		mean += res.Quality
		if res.Conflicts != 0 {
			t.Fatal("independent parallel session reported conflicts")
		}
	}
	mean /= trials
	// The best worker writes at ~0.7 + 0.45*0.12 ~ 0.75; selection pushes
	// the expectation above the base.
	if mean < 0.7 {
		t.Errorf("evaluation should select the best copy: mean = %v", mean)
	}
}

func TestHybridLiftsWeakCrowd(t *testing.T) {
	task := SampleTranslationTasks()[0]
	rngC := rand.New(rand.NewSource(6))
	rngH := rand.New(rand.NewSource(6))
	var cro, hyb float64
	const trials = 60
	for i := 0; i < trials; i++ {
		c := RunSession(task, workers(3, 0.3), SessionConfig{
			Dims:   dims(strategy.Simultaneous, strategy.Independent, strategy.CrowdOnly),
			Guided: true, BaseQuality: 0.35,
		}, rngC)
		h := RunSession(task, workers(3, 0.3), SessionConfig{
			Dims:   dims(strategy.Simultaneous, strategy.Independent, strategy.Hybrid),
			Guided: true, BaseQuality: 0.35, Machine: NewMachineTranslator(),
		}, rngH)
		cro += c.Quality
		hyb += h.Quality
	}
	if hyb <= cro {
		t.Errorf("hybrid should lift a weak crowd: crowd-only %v vs hybrid %v", cro/trials, hyb/trials)
	}
}

func TestHybridAppliesToSequential(t *testing.T) {
	task := SampleTranslationTasks()[0]
	rng := rand.New(rand.NewSource(7))
	res := RunSession(task, workers(2, 0.1), SessionConfig{
		Dims:   dims(strategy.Sequential, strategy.Independent, strategy.Hybrid),
		Guided: true, BaseQuality: 0.1, Machine: MachineTranslator{Quality: 0.95},
	}, rng)
	if res.Quality < 0.5 {
		t.Errorf("machine pass should dominate a hopeless crowd: quality = %v", res.Quality)
	}
	// The machine's edits appear in the history.
	machineEdits := 0
	for _, e := range res.Doc.History {
		if e.Worker == "machine" {
			machineEdits++
		}
	}
	if machineEdits == 0 {
		t.Error("no machine edits recorded")
	}
}

func TestSessionDeterministicWithSeed(t *testing.T) {
	task := SampleCreationTasks()[0]
	cfg := SessionConfig{
		Dims:        dims(strategy.Simultaneous, strategy.Collaborative, strategy.CrowdOnly),
		Guided:      false,
		BaseQuality: 0.8,
	}
	a := RunSession(task, workers(4, 0.5), cfg, rand.New(rand.NewSource(42)))
	b := RunSession(task, workers(4, 0.5), cfg, rand.New(rand.NewSource(42)))
	if a.Quality != b.Quality || a.TotalEdits != b.TotalEdits || a.Conflicts != b.Conflicts {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestEditHistoryConsistency(t *testing.T) {
	task := SampleTranslationTasks()[0]
	rng := rand.New(rand.NewSource(8))
	res := RunSession(task, workers(5, 0.6), SessionConfig{
		Dims:        dims(strategy.Simultaneous, strategy.Collaborative, strategy.CrowdOnly),
		Guided:      false,
		BaseQuality: 0.8,
	}, rng)
	if res.TotalEdits != len(res.Doc.History) {
		t.Errorf("TotalEdits = %d, history = %d", res.TotalEdits, len(res.Doc.History))
	}
	if res.AvgEdits != float64(res.TotalEdits)/float64(len(task.Lines)) {
		t.Errorf("AvgEdits inconsistent")
	}
	conflictCount := 0
	for _, e := range res.Doc.History {
		if e.Line < 0 || e.Line >= len(task.Lines) {
			t.Fatalf("edit on line %d outside task", e.Line)
		}
		if e.Conflict {
			conflictCount++
		}
	}
	if conflictCount != res.Conflicts {
		t.Errorf("Conflicts = %d, history says %d", res.Conflicts, conflictCount)
	}
}

// TestSimulatedExpertAgreement re-judges a finished document with a second
// noisy expert and checks inter-rater agreement (Cohen's kappa) is far
// above chance — the sanity check behind trusting the simulated expert
// scores the Figure 12 / Table 6 pipeline consumes.
func TestSimulatedExpertAgreement(t *testing.T) {
	task := SampleTranslationTasks()[0]
	rng := rand.New(rand.NewSource(77))
	res := RunSession(task, workers(6, 0.6), SessionConfig{
		Dims:        dims(strategy.Sequential, strategy.Independent, strategy.CrowdOnly),
		Guided:      true,
		BaseQuality: 0.6, // mixed-quality output gives both labels mass
	}, rng)

	var rater1, rater2 []bool
	for _, line := range res.Doc.Correct {
		for _, ok := range line {
			rater1 = append(rater1, ok)
			// The second expert misjudges 8% of words.
			judged := ok
			if rng.Float64() < 0.08 {
				judged = !judged
			}
			rater2 = append(rater2, judged)
		}
	}
	if kappa := boolKappa(rater1, rater2); !(kappa >= 0.6) {
		t.Errorf("expert agreement kappa = %v, want substantial (>0.6)", kappa)
	}
}

// boolKappa is Cohen's kappa for two raters' boolean labels of the same
// items: their observed agreement corrected for the agreement their label
// frequencies predict by chance.
func boolKappa(a, b []bool) float64 {
	n := float64(len(a))
	var agree, pa, pb float64
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
		if a[i] {
			pa++
		}
		if b[i] {
			pb++
		}
	}
	pa, pb = pa/n, pb/n
	chance := pa*pb + (1-pa)*(1-pb)
	return (agree/n - chance) / (1 - chance)
}
