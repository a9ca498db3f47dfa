package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"stratrec/internal/strategy"
	"stratrec/internal/wal"
)

// writeTenantLog writes a tenant log directly: the tail records, each
// given the next sequence number, then an optional checkpoint over them.
func writeTenantLog(t *testing.T, dir string, cp *wal.Checkpoint, tail []wal.Record) {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, r := range tail {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if cp != nil {
		if _, err := l.Checkpoint(*cp); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryRefusals: a log that recovery cannot rebuild exactly fails
// server.New, and a runtime CreateTenant over the same directory, with a
// message naming the broken record. The refused tenant is never
// registered, and its directory lock is released. Next to healthy
// tenants that recover concurrently with it, New still reports the
// broken tenant and releases every tenant's lock.
func TestRecoveryRefusals(t *testing.T) {
	cases := []struct {
		name string
		cp   *wal.Checkpoint
		tail []wal.Record
		// damage, when set, edits the written log before recovery.
		damage func(t *testing.T, dir string)
		want   string
	}{
		{
			name: "tail epoch off by one",
			tail: []wal.Record{{Kind: wal.KindAvailability, W: 0.5, Epoch: 2}},
			want: "epoch divergence at seq 1",
		},
		{
			name: "revoke of an unknown id",
			tail: []wal.Record{{Kind: wal.KindRevoke, ID: "ghost", Epoch: 1}},
			want: "replaying seq 1",
		},
		{
			name: "tail requirement fingerprint",
			tail: []wal.Record{{Kind: wal.KindSubmit, ID: "r1", Quality: 0.5, Cost: 0.9, Latency: 0.9, K: 1, Req: 12345, Epoch: 1}},
			want: "seq 1 (submit r1): requirement fingerprint divergence",
		},
		{
			name: "checkpoint requirement fingerprint",
			cp: &wal.Checkpoint{Epoch: 1, Availability: 0.7, NextSub: 1, Requests: []wal.CheckpointRequest{
				{ID: "c1", Quality: 0.5, Cost: 0.9, Latency: 0.9, K: 1, Req: 12345},
			}},
			want: "re-admitting c1 (sub 0): requirement fingerprint divergence",
		},
		{
			// The checkpoint deleted the segment holding seq 1, so without
			// it the tenant would come back empty.
			name: "unreadable sole checkpoint",
			tail: []wal.Record{{Kind: wal.KindAvailability, W: 0.5, Epoch: 1}},
			cp:   &wal.Checkpoint{Epoch: 1, Availability: 0.5},
			damage: func(t *testing.T, dir string) {
				path := filepath.Join(dir, "checkpoint-00000000000000000001.ckpt")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[12] ^= 1
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: "wal-00000000000000000002.log starts at seq 2, and no readable checkpoint covers seqs 1..1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			write := func(dir string) {
				writeTenantLog(t, dir, tc.cp, tc.tail)
				if tc.damage != nil {
					tc.damage(t, dir)
				}
			}
			dir := t.TempDir()
			tenantDir := filepath.Join(dir, "alpha")
			write(tenantDir)
			// unlocked checks that a refusal released dir's lock. wal.Open
			// locks before it scans, so it must succeed or meet the case's
			// own refusal, never ErrLocked.
			unlocked := func(how, dir string) {
				t.Helper()
				l, _, err := wal.Open(dir, wal.Options{})
				if err == nil {
					l.Close()
				} else if errors.Is(err, wal.ErrLocked) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: directory still locked after the refusal: %v", how, err)
				}
			}
			refused := func(how string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: err = %v, want it to contain %q", how, err, tc.want)
				}
				unlocked(how, tenantDir)
			}

			_, err := New(Config{Tenants: map[string]TenantConfig{"alpha": fixedTenant(6, 0.7)}, DataDir: dir})
			refused("New", err)

			s, err := New(Config{Tenants: map[string]TenantConfig{"beta": fixedTenant(6, 0.7)}, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			refused("CreateTenant", s.CreateTenant("alpha", fixedTenant(6, 0.7)))
			if _, err := s.Tenant("alpha"); !errors.Is(err, ErrUnknownTenant) {
				t.Fatalf("refused tenant is registered: %v", err)
			}
			if names := s.TenantNames(); !slices.Equal(names, []string{"beta"}) {
				t.Fatalf("tenants after a refused create: %v", names)
			}

			// Two healthy durable tenants with data, and the broken log
			// under a name that sorts last.
			multi := t.TempDir()
			healthy := map[string]TenantConfig{"alpha": fixedTenant(6, 0.7), "beta": fixedTenant(6, 0.7)}
			hs, err := New(Config{Tenants: healthy, DataDir: multi})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"alpha", "beta"} {
				tn, err := hs.Tenant(name)
				if err != nil {
					t.Fatal(err)
				}
				for i := range 5 {
					if _, err := tn.Submit(context.Background(), strategy.Request{
						ID: fmt.Sprintf("r%d", i), Params: strategy.Params{Quality: 0.5, Cost: 0.9, Latency: 0.9}, K: 1,
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			hs.Close()
			write(filepath.Join(multi, "gamma"))
			all := map[string]TenantConfig{"alpha": healthy["alpha"], "beta": healthy["beta"], "gamma": fixedTenant(6, 0.7)}
			_, err = New(Config{Tenants: all, DataDir: multi})
			if err == nil || !strings.Contains(err.Error(), "tenant gamma") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New with healthy tenants: err = %v, want tenant gamma's %q", err, tc.want)
			}
			for name := range all {
				unlocked(name, filepath.Join(multi, name))
			}
		})
	}
}

// BenchmarkRecovery times server.New plus Close over a prepared data
// dir: recovery's scan, decode, re-admission and replay, with the ADPaR
// index compile New also pays. tail-10k is a 10k-record log with no
// checkpoint; ckpt-1k+tail-2k is the recover workload's shape for one
// tenant, a 1000-request checkpoint plus a 2000-record tail.
func BenchmarkRecovery(b *testing.B) {
	for _, bc := range []struct {
		name          string
		prefill, tail int
	}{
		{"tail-10k", 0, 10000},
		{"ckpt-1k+tail-2k", 1000, 2000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{
				Tenants: map[string]TenantConfig{"alpha": synthTenant(3, 200, 0.5)},
				DataDir: b.TempDir(),
			}
			writeRecoveryDir(b, cfg, bc.prefill, bc.tail)
			b.ReportAllocs()
			for b.Loop() {
				s, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// writeRecoveryDir leaves tenant alpha's durable state under cfg.DataDir:
// prefill open submits and a checkpoint over them (when prefill > 0),
// then an n-record tail of mutationMix, sent in 64-op bodies.
func writeRecoveryDir(b *testing.B, cfg Config, prefill, n int) {
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tn, _ := s.Tenant("alpha")
	if prefill > 0 {
		ops := make([]op, prefill)
		for i := range ops {
			ops[i] = op{kind: opSubmit, req: strategy.Request{
				ID:     fmt.Sprintf("p%05d", i),
				Params: strategy.Params{Quality: 0.25 + 0.6*float64(i%101)/101, Cost: 0.9, Latency: 0.9},
				K:      1,
			}}
		}
		sendBodies(b, tn, ops, 64)
		if _, err := tn.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	driveBatches(b, tn, n, 23, 64)
}
