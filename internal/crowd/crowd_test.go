package crowd

import (
	"math"
	"testing"
	"time"

	"stratrec/internal/linreg"
	"stratrec/internal/strategy"
)

func seqIndCro() strategy.Dimensions {
	return strategy.Dimensions{Structure: strategy.Sequential, Organization: strategy.Independent, Style: strategy.CrowdOnly}
}

func simColCro() strategy.Dimensions {
	return strategy.Dimensions{Structure: strategy.Simultaneous, Organization: strategy.Collaborative, Style: strategy.CrowdOnly}
}

func TestPaperGroundTruthShape(t *testing.T) {
	gt := PaperGroundTruth()
	if len(gt) != 4 {
		t.Fatalf("ground truth entries = %d, want 4", len(gt))
	}
	// Table 6's directions: quality and cost do not fall with
	// availability, latency does not rise.
	for key, pm := range gt {
		if pm.Quality.Alpha < 0 || pm.Cost.Alpha < 0 || pm.Latency.Alpha > 0 {
			t.Errorf("%v/%v: slopes %+v against Table 6's directions", key.Task, key.Dims, pm)
		}
	}
	// Spot-check Table 6: translation SEQ-IND-CRO quality (0.09, 0.85).
	pm := gt[ModelKey{Task: SentenceTranslation, Dims: seqIndCro()}]
	if pm.Quality.Alpha != 0.09 || pm.Quality.Beta != 0.85 {
		t.Errorf("quality model = %+v", pm.Quality)
	}
}

func TestGroundTruthFallback(t *testing.T) {
	// SIM-IND-HYB is not in Table 6; it borrows the SEQ-IND-CRO curves.
	dims := strategy.Dimensions{Structure: strategy.Simultaneous, Organization: strategy.Independent, Style: strategy.Hybrid}
	got := groundTruthFor(SentenceTranslation, dims)
	want := PaperGroundTruth()[ModelKey{Task: SentenceTranslation, Dims: seqIndCro()}]
	if got != want {
		t.Errorf("fallback = %+v, want SEQ-IND-CRO models", got)
	}
	// SEQ-COL-CRO borrows the collaborative curves.
	dims = strategy.Dimensions{Structure: strategy.Sequential, Organization: strategy.Collaborative, Style: strategy.CrowdOnly}
	got = groundTruthFor(TextCreation, dims)
	want = PaperGroundTruth()[ModelKey{Task: TextCreation, Dims: simColCro()}]
	if got != want {
		t.Errorf("collaborative fallback = %+v", got)
	}
}

func TestTaskTypeString(t *testing.T) {
	if SentenceTranslation.String() != "translation" || TextCreation.String() != "creation" {
		t.Error("task type strings")
	}
	if TaskType(9).String() == "" {
		t.Error("unknown task type string")
	}
}

func TestMarketplaceDeterministic(t *testing.T) {
	a := NewMarketplace(DefaultConfig(), 7)
	b := NewMarketplace(DefaultConfig(), 7)
	if len(a.workers) != len(b.workers) {
		t.Fatal("pool sizes differ")
	}
	for i := range a.workers {
		if a.workers[i].ID != b.workers[i].ID ||
			a.workers[i].ApprovalRate != b.workers[i].ApprovalRate {
			t.Fatal("same seed produced different pools")
		}
	}
}

func TestQualificationFilters(t *testing.T) {
	m := NewMarketplace(DefaultConfig(), 11)
	q := PaperQualification(SentenceTranslation)
	qualified := m.Qualified(q)
	if len(qualified) == 0 {
		t.Fatal("no qualified translators")
	}
	for _, w := range qualified {
		if w.ApprovalRate < 0.90 {
			t.Errorf("worker %s approval %v below filter", w.ID, w.ApprovalRate)
		}
		if w.Location != "US" && w.Location != "IN" {
			t.Errorf("worker %s location %s outside filter", w.ID, w.Location)
		}
	}
	for _, w := range m.Qualified(PaperQualification(TextCreation)) {
		if !w.HasDegree || w.Location != "US" {
			t.Errorf("creation worker %s fails degree/location filter", w.ID)
		}
	}
}

func TestStandardWindows(t *testing.T) {
	wins := StandardWindows()
	if len(wins) != 3 {
		t.Fatalf("windows = %d", len(wins))
	}
	for i, w := range wins {
		if w.Duration() != 72*time.Hour {
			t.Errorf("window %d duration = %v, want 72h", i, w.Duration())
		}
		if i > 0 && !w.Start.Equal(wins[i-1].End) {
			t.Errorf("window %d does not start at window %d's end", i, i-1)
		}
	}
	// Window 1 starts on a Friday.
	if wins[0].Start.Weekday() != time.Friday {
		t.Errorf("window 1 starts on %v, want Friday", wins[0].Start.Weekday())
	}
}

func TestDeployBasics(t *testing.T) {
	m := NewMarketplace(DefaultConfig(), 17)
	out, err := m.Deploy(HIT{
		Task: SentenceTranslation, Dims: seqIndCro(),
		Window: StandardWindows()[1], MaxWorkers: 10, PayPerWorker: 2, Guided: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.WorkersRecruited == 0 || out.WorkersRecruited > 10 {
		t.Fatalf("recruited %d", out.WorkersRecruited)
	}
	if out.Availability < 0 || out.Availability > 1 {
		t.Errorf("availability = %v", out.Availability)
	}
	if out.Quality <= 0 || out.Quality > 1 {
		t.Errorf("quality = %v", out.Quality)
	}
	if out.DollarCost != float64(out.WorkersRecruited)*2 {
		t.Errorf("dollar cost = %v for %d workers", out.DollarCost, out.WorkersRecruited)
	}
	// Latency is normalized against the window but may exceed 1 when the
	// deployment outlives it (the paper's Figure 12 axis runs to 1.2).
	if out.Latency <= 0 || out.Latency > 1.5 {
		t.Errorf("latency = %v", out.Latency)
	}
	if out.Hours <= 0 || out.Hours > 1.5*72 {
		t.Errorf("hours = %v", out.Hours)
	}
}

func TestDeployValidation(t *testing.T) {
	m := NewMarketplace(DefaultConfig(), 19)
	if _, err := m.Deploy(HIT{Task: SentenceTranslation, MaxWorkers: 0}); err == nil {
		t.Error("zero worker cap accepted")
	}
}

func TestDeployEditWarUnguided(t *testing.T) {
	m := NewMarketplace(DefaultConfig(), 23)
	win := StandardWindows()[1]
	var guided, unguided float64
	const trials = 25
	for i := 0; i < trials; i++ {
		g, err := m.Deploy(HIT{Task: SentenceTranslation, Dims: simColCro(), Window: win, MaxWorkers: 7, PayPerWorker: 2, Guided: true})
		if err != nil {
			t.Fatal(err)
		}
		u, err := m.Deploy(HIT{Task: SentenceTranslation, Dims: simColCro(), Window: win, MaxWorkers: 7, PayPerWorker: 2, Guided: false})
		if err != nil {
			t.Fatal(err)
		}
		guided += g.AvgEdits
		unguided += u.AvgEdits
	}
	if unguided <= guided {
		t.Errorf("edit war missing: unguided %v edits vs guided %v", unguided/trials, guided/trials)
	}
}

func TestEstimateAvailabilityWindowShape(t *testing.T) {
	m := NewMarketplace(DefaultConfig(), 29)
	pdfs, err := m.EstimateAvailability(SentenceTranslation, seqIndCro(), 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pdfs) != 3 {
		t.Fatalf("pdfs = %d", len(pdfs))
	}
	// Figure 11's shape: window 2 has the highest expected availability.
	w1, w2, w3 := pdfs[0].Expected(), pdfs[1].Expected(), pdfs[2].Expected()
	if !(w2 > w1 && w2 > w3) {
		t.Errorf("window availabilities = %v %v %v, want the middle highest", w1, w2, w3)
	}
}

// TestDeployRecoversGroundTruthModels is the Table 6 reproduction in
// miniature: regressing measured quality and latency on measured
// availability recovers the seeded (alpha, beta) within loose tolerances.
func TestDeployRecoversGroundTruthModels(t *testing.T) {
	m := NewMarketplace(Config{
		PoolSize:       1500,
		WindowActivity: [3]float64{0.45, 0.95, 0.70}, // spread availability
		ActivityJitter: 0.15,
	}, 31)
	var avail, quality, latency []float64
	for _, win := range StandardWindows() {
		for i := 0; i < 60; i++ {
			out, err := m.Deploy(HIT{Task: SentenceTranslation, Dims: seqIndCro(), Window: win, MaxWorkers: 10, PayPerWorker: 2, Guided: true})
			if err != nil {
				t.Fatal(err)
			}
			if out.WorkersRecruited == 0 {
				continue
			}
			avail = append(avail, out.Availability)
			quality = append(quality, out.Quality)
			latency = append(latency, out.Latency)
		}
	}
	gt := PaperGroundTruth()[ModelKey{Task: SentenceTranslation, Dims: seqIndCro()}]
	qFit, err := linreg.OLS(avail, quality)
	if err != nil {
		t.Fatal(err)
	}
	// Quality slope is shallow (0.09): allow generous noise but demand the
	// right sign and neighborhood.
	if math.Abs(qFit.Alpha-gt.Quality.Alpha) > 0.15 {
		t.Errorf("quality slope = %v, want ~%v", qFit.Alpha, gt.Quality.Alpha)
	}
	if math.Abs(qFit.Beta-gt.Quality.Beta) > 0.12 {
		t.Errorf("quality intercept = %v, want ~%v", qFit.Beta, gt.Quality.Beta)
	}
	lFit, err := linreg.OLS(avail, latency)
	if err != nil {
		t.Fatal(err)
	}
	if lFit.Alpha >= 0 {
		t.Errorf("latency slope = %v, want negative", lFit.Alpha)
	}
}
