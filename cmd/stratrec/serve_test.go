package main

import (
	"strings"
	"testing"
)

func TestServeErrors(t *testing.T) {
	if err := runServe([]string{"-objective", "bogus"}); err == nil {
		t.Error("bogus objective accepted")
	}
	if err := runServe([]string{"-mode", "bogus"}); err == nil {
		t.Error("bogus mode accepted")
	}
	if err := runServe([]string{"-tenants", "/nonexistent.json"}); err == nil {
		t.Error("missing tenants file accepted")
	}
	if err := runServe([]string{"-badflag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	// Refused by name before any catalog is generated: a negative
	// -demo-strategies used to panic in the generator.
	for _, args := range [][]string{{"-demo-tenants", "0"}, {"-demo-strategies", "-5"}} {
		if err := runServe(args); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("serve %v: err = %v, want it refused by name", args, err)
		}
	}
	// The unusable address makes an accepted value fail here with a
	// listen error instead of serving forever.
	if err := runServe([]string{"-checkpoint-every", "-1", "-addr", "127.0.0.1:-1"}); err == nil || !strings.Contains(err.Error(), "CheckpointEvery") {
		t.Errorf("negative checkpoint interval: err = %v, want it refused by name", err)
	}
	if err := runServe([]string{"-coalesce", "-1", "-addr", "127.0.0.1:-1"}); err == nil || !strings.Contains(err.Error(), "Coalesce") {
		t.Errorf("negative coalesce: err = %v, want it refused by name", err)
	}
}
