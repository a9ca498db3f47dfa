package store

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"stratrec/internal/linmodel"
	"stratrec/internal/strategy"
	"stratrec/internal/workforce"
)

func sampleCatalog() Catalog {
	pm := linmodel.ParamModels{
		Quality: linmodel.Model{Alpha: 0.09, Beta: 0.85},
		Cost:    linmodel.Model{Alpha: 1, Beta: 0},
		Latency: linmodel.Model{Alpha: -0.98, Beta: 1.4},
	}
	return Catalog{
		Workforce: 0.8,
		Entries: []Entry{
			{Name: "s1", Structure: "SIM", Organize: "COL", Style: "CRO",
				Params: strategy.Params{Quality: 0.5, Cost: 0.25, Latency: 0.28}, Models: &pm},
			{Name: "s2", Structure: "SEQ", Organize: "IND", Style: "CRO",
				Params: strategy.Params{Quality: 0.75, Cost: 0.33, Latency: 0.28}, Models: &pm},
		},
	}
}

func TestMaterialize(t *testing.T) {
	set, models, err := sampleCatalog().Materialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || len(models) != 2 {
		t.Fatalf("set=%d models=%d", len(set), len(models))
	}
	if set[0].Dims.String() != "SIM-COL-CRO" || set[1].Dims.String() != "SEQ-IND-CRO" {
		t.Errorf("dims = %v, %v", set[0].Dims, set[1].Dims)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if models[0].Quality.Alpha != 0.09 {
		t.Errorf("models = %+v", models[0])
	}
}

func TestMaterializeErrors(t *testing.T) {
	c := sampleCatalog()
	c.Entries[0].Structure = "XYZ"
	if _, _, err := c.Materialize(nil); err == nil {
		t.Error("bad structure accepted")
	}
	c = sampleCatalog()
	c.Entries[0].Organize = "XYZ"
	if _, _, err := c.Materialize(nil); err == nil {
		t.Error("bad organization accepted")
	}
	c = sampleCatalog()
	c.Entries[0].Style = "XYZ"
	if _, _, err := c.Materialize(nil); err == nil {
		t.Error("bad style accepted")
	}
	c = sampleCatalog()
	c.Entries[0].Params.Quality = 2
	if _, _, err := c.Materialize(nil); err == nil {
		t.Error("bad params accepted")
	}
	c = sampleCatalog()
	c.Entries[0].Models = nil
	if _, _, err := c.Materialize(nil); !errors.Is(err, ErrNoModels) {
		t.Errorf("missing models error = %v", err)
	}
	// With defaults the same catalog materializes.
	if _, _, err := c.Materialize(func(Entry) linmodel.ParamModels {
		return linmodel.ParamModels{Quality: linmodel.Model{Alpha: 1}}
	}); err != nil {
		t.Errorf("defaults not applied: %v", err)
	}
	if _, _, err := (Catalog{}).Materialize(nil); err == nil {
		t.Error("empty catalog accepted")
	}
}

func TestRoundTripThroughDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "catalog.json")
	orig := sampleCatalog()
	if err := Save(path, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Workforce != orig.Workforce || len(loaded.Entries) != len(orig.Entries) {
		t.Fatalf("loaded = %+v", loaded)
	}
	for i := range orig.Entries {
		if loaded.Entries[i].Name != orig.Entries[i].Name ||
			loaded.Entries[i].Params != orig.Entries[i].Params ||
			*loaded.Entries[i].Models != *orig.Entries[i].Models {
			t.Errorf("entry %d mismatch", i)
		}
	}
}

func TestTenantsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	orig := Tenants{Tenants: map[string]Catalog{
		"alpha": sampleCatalog(),
		"beta":  sampleCatalog(),
	}}
	if err := Save(path, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTenants(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("names = %v", got)
	}
	if len(loaded.Tenants["alpha"].Entries) != 2 {
		t.Errorf("alpha catalog = %+v", loaded.Tenants["alpha"])
	}
	// Each tenant catalog materializes independently.
	for _, name := range loaded.Names() {
		if _, _, err := loaded.Tenants[name].Materialize(nil); err != nil {
			t.Errorf("tenant %s: %v", name, err)
		}
	}
}

func TestTenantsValidate(t *testing.T) {
	cases := []struct {
		name string
		t    Tenants
		ok   bool
	}{
		{"no tenants", Tenants{}, false},
		{"empty map", Tenants{Tenants: map[string]Catalog{}}, false},
		{"empty name", Tenants{Tenants: map[string]Catalog{"": {}}}, false},
		{"slash in name", Tenants{Tenants: map[string]Catalog{"a/b": {}}}, false},
		{"space in name", Tenants{Tenants: map[string]Catalog{"a b": {}}}, false},
		{"percent in name", Tenants{Tenants: map[string]Catalog{"a%b": {}}}, false},
		{"clean", Tenants{Tenants: map[string]Catalog{"alpha-1": {}}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.t.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate = %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("invalid tenants accepted")
			}
		})
	}
	// LoadTenants applies Validate.
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := Save(path, Tenants{}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTenants(path); err == nil {
		t.Error("empty tenants file loaded")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadCatalog("/nonexistent/file.json"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := Save(bad, "not a catalog"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCatalog(bad); err == nil {
		t.Error("malformed catalog accepted")
	}
}

func TestHistoryFitModels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h History
	// Planted models for two strategies.
	planted := map[string]linmodel.ParamModels{
		"SEQ-IND-CRO": {
			Quality: linmodel.Model{Alpha: 0.09, Beta: 0.85},
			Cost:    linmodel.Model{Alpha: 1, Beta: 0},
			Latency: linmodel.Model{Alpha: -0.98, Beta: 1.4},
		},
		"SIM-COL-CRO": {
			Quality: linmodel.Model{Alpha: 0.19, Beta: 0.7},
			Cost:    linmodel.Model{Alpha: 0.82, Beta: 0.17},
			Latency: linmodel.Model{Alpha: -0.63, Beta: 1.01},
		},
	}
	for name, pm := range planted {
		for i := 0; i < 60; i++ {
			w := rng.Float64()
			h.Observations = append(h.Observations, Observation{
				Strategy:     name,
				Availability: w,
				Quality:      pm.Quality.AtRaw(w) + rng.NormFloat64()*0.01,
				Cost:         pm.Cost.AtRaw(w) + rng.NormFloat64()*0.01,
				Latency:      pm.Latency.AtRaw(w) + rng.NormFloat64()*0.01,
			})
		}
	}
	// A sparse strategy that must be skipped.
	h.Observations = append(h.Observations, Observation{Strategy: "RARE", Availability: 0.5, Quality: 0.5})

	fits, err := h.FitModels(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 2 {
		t.Fatalf("fitted %d strategies, want 2", len(fits))
	}
	for name, pm := range planted {
		got := fits[name]
		if math.Abs(got.Quality.Alpha-pm.Quality.Alpha) > 0.03 ||
			math.Abs(got.Cost.Alpha-pm.Cost.Alpha) > 0.03 ||
			math.Abs(got.Latency.Alpha-pm.Latency.Alpha) > 0.03 {
			t.Errorf("%s fit %+v far from planted %+v", name, got, pm)
		}
	}
}

func TestHistoryFitModelsEmpty(t *testing.T) {
	if _, err := (History{}).FitModels(2); !errors.Is(err, ErrTooFewObservations) {
		t.Errorf("error = %v", err)
	}
}

func TestMaterializedCatalogDrivesWorkforce(t *testing.T) {
	set, models, err := sampleCatalog().Materialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []strategy.Request{
		{ID: "d", Params: strategy.Params{Quality: 0.9, Cost: 0.95, Latency: 0.9}, K: 1},
	}
	mat, err := workforce.Compute(reqs, set, models)
	if err != nil {
		t.Fatal(err)
	}
	agg := mat.Aggregate(0, 1, workforce.MaxCase)
	if !agg.Feasible() {
		t.Error("catalog-driven requirement infeasible")
	}
}
