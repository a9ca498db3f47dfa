package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"stratrec/internal/store"
)

func TestRunWritesLoadableHistory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "history.json")
	if err := run(path, "translation", 5, 10, 7, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var h store.History
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Observations) == 0 {
		t.Fatal("no observations written")
	}
	for _, o := range h.Observations {
		if o.Availability < 0 || o.Availability > 1 {
			t.Errorf("availability = %v", o.Availability)
		}
		if o.Strategy != "SEQ-IND-CRO" && o.Strategy != "SIM-COL-CRO" {
			t.Errorf("strategy = %q", o.Strategy)
		}
	}
	// The written log round-trips through model fitting.
	fits, err := h.FitModels(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 2 {
		t.Errorf("fitted %d strategies", len(fits))
	}
	for name, pm := range fits {
		if pm.Latency.Alpha >= 0 {
			t.Errorf("%s: latency slope %v should be negative", name, pm.Latency.Alpha)
		}
	}
}

func TestRunCreationTaskAndFit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "history.json")
	if err := run(path, "creation", 12, 10, 9, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("", "bogus", 5, 10, 1, false); err == nil {
		t.Error("bogus task accepted")
	}
	if err := run("", "translation", 0, 10, 1, false); err == nil {
		t.Error("zero deploys accepted")
	}
	if err := run("/nonexistent/dir/x.json", "translation", 2, 10, 1, false); err == nil {
		t.Error("unwritable path accepted")
	}
}
