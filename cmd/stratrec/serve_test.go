package main

import "testing"

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
	if err := runServe([]string{"-demo-tenants", "0"}); err == nil {
		t.Error("zero tenants accepted")
	}
}
