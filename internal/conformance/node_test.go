package conformance

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDurableRootRule: both kill/restart oracles keep one rule for their
// durability root. An explicit root must be empty or absent, is refused
// untouched otherwise, and survives every run; a temp root is removed
// after a clean run and kept after a failing one, for inspection.
func TestDurableRootRule(t *testing.T) {
	tr := genTrace(t, 6, 400)
	const cut = 200
	// wipeTenant deletes one tenant's log and checkpoint files under root:
	// durable state silently lost, which the oracle must report.
	wipeTenant := func(root string) error {
		dir := filepath.Join(root, "tenant-1")
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".log") || strings.HasSuffix(e.Name(), ".ckpt") {
				if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// onlyRoot finds the one temp root a run made under tmp.
	onlyRoot := func(tmp string) string {
		roots, _ := filepath.Glob(filepath.Join(tmp, "stratrec-*"))
		if len(roots) != 1 {
			t.Fatalf("want one temp root under %s, found %v", tmp, roots)
		}
		return roots[0]
	}

	oracles := []struct {
		name string
		// run runs the oracle on root ("" = temp root under tmp) and, with
		// sabotage, loses durable state so that the run fails.
		run func(root, tmp string, sabotage bool) (dataDir string, ok bool, err error)
	}{
		{"crash", func(root, tmp string, sabotage bool) (string, bool, error) {
			cfg := CrashConfig{Cut: cut, CheckpointAt: -1, DataDir: root}
			if sabotage {
				cfg.OnEvent = func(i int, _ Event) {
					if i == cut-1 {
						if err := wipeTenant(onlyRoot(tmp)); err != nil {
							t.Error(err)
						}
					}
				}
			}
			res, err := RunCrash(tr, cfg)
			return res.DataDir, res.OK(), err
		}},
		{"overload", func(root, _ string, sabotage bool) (string, bool, error) {
			cfg := OverloadConfig{Profile: ThunderingHerd, Seed: 13, DataDir: root}
			if sabotage {
				cfg.BetweenPhases = chopLastWALRecord
			}
			res, err := RunOverload(cfg)
			return res.DataDir, res.OK(), err
		}},
	}
	for _, o := range oracles {
		t.Run(o.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp) // temp roots land where the test can see them

			// An explicit non-empty root is refused and left byte-identical.
			busy := filepath.Join(t.TempDir(), "busy")
			if err := os.MkdirAll(filepath.Join(busy, "tenant-1"), 0o755); err != nil {
				t.Fatal(err)
			}
			stale := []byte("a previous run's log")
			if err := os.WriteFile(filepath.Join(busy, "tenant-1", "wal-00000000000000000001.log"), stale, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := o.run(busy, tmp, false); err == nil || !strings.Contains(err.Error(), "not empty") {
				t.Fatalf("non-empty root: err = %v, want a refusal", err)
			}
			if got, err := os.ReadFile(filepath.Join(busy, "tenant-1", "wal-00000000000000000001.log")); err != nil || !bytes.Equal(got, stale) {
				t.Fatalf("refused root changed: %q, %v", got, err)
			}
			if entries, _ := os.ReadDir(busy); len(entries) != 1 {
				t.Fatalf("refused root holds %d entries, want 1", len(entries))
			}

			// An explicit root survives a clean run.
			explicit := filepath.Join(t.TempDir(), "root")
			dataDir, ok, err := o.run(explicit, tmp, false)
			if err != nil || !ok {
				t.Fatalf("clean run on an explicit root: ok %v, err %v", ok, err)
			}
			if entries, err := os.ReadDir(explicit); dataDir != explicit || err != nil || len(entries) == 0 {
				t.Fatalf("explicit root %s after a clean run: data dir %s, %d entries, %v", explicit, dataDir, len(entries), err)
			}

			// A temp root is removed after a clean run...
			if dataDir, ok, err = o.run("", tmp, false); err != nil || !ok {
				t.Fatalf("clean run on a temp root: ok %v, err %v", ok, err)
			}
			if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
				t.Fatalf("clean run left its temp root %s: %v", dataDir, err)
			}

			// ...and kept after a failing one.
			dataDir, ok, err = o.run("", tmp, true)
			if err == nil && ok {
				t.Fatal("sabotaged run passed")
			}
			if dataDir == "" || filepath.Dir(dataDir) != tmp {
				t.Fatalf("failing run's data dir %q is not a temp root under %s", dataDir, tmp)
			}
			if _, err := os.Stat(dataDir); err != nil {
				t.Fatalf("failing run removed its temp root: %v", err)
			}
		})
	}
}
