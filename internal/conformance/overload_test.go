package conformance

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestOverloadProfilesAccounting runs every chaos profile and requires a
// clean shed-accounting ledger: all acked mutations recovered, all shed
// mutations absent, epochs exactly once — and the run must actually have
// shed (the teeth invariant inside the oracle itself).
func TestOverloadProfilesAccounting(t *testing.T) {
	for _, profile := range OverloadProfiles {
		t.Run(string(profile), func(t *testing.T) {
			t.Parallel()
			res, err := RunOverload(OverloadConfig{
				Profile:    profile,
				Seed:       31,
				DeadlineMs: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(res)
			if !res.OK() {
				t.Fatalf("accounting violations:\n%s", res)
			}
			if res.Shed == 0 {
				t.Fatal("profile shed nothing; the run proves nothing")
			}
			if profile == RevokeStormShed && res.Acked == 0 {
				t.Fatal("revoke storm acked nothing")
			}
		})
	}
}

// TestOverloadGroupCommitAccounting: the commit scheduler under chaos at
// a nonzero window. With fsyncs shared across batches and the
// fsync-failure schedule tripping the read-only breaker mid-run, the
// ledger must still balance: every acked mutation recovered, every shed
// absent, epochs exactly once.
func TestOverloadGroupCommitAccounting(t *testing.T) {
	res, err := RunOverload(OverloadConfig{
		Profile:           RevokeStormShed,
		Seed:              31,
		DeadlineMs:        10,
		GroupCommitWindow: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if !res.OK() {
		t.Fatalf("accounting violations under group commit:\n%s", res)
	}
	if res.Shed == 0 {
		t.Fatal("profile shed nothing; the run proves nothing")
	}
}

// TestOverloadGroupCommitAppendFailureAccounting: the append-path
// counterpart of the group-commit chaos run. A WAL append failure rolls
// the log back to its durable prefix, which destroys the earlier records
// of the same coalesced batch — ops whose appends
// succeeded and whose records are suddenly gone. The ledger must still
// balance: no op acked before the mid-batch failure may turn up
// acked-but-absent after the restart, and everything rolled back must
// have been answered 503.
func TestOverloadGroupCommitAppendFailureAccounting(t *testing.T) {
	res, err := RunOverload(OverloadConfig{
		Profile:           RevokeStormShed,
		Seed:              31,
		DeadlineMs:        10,
		GroupCommitWindow: 200 * time.Microsecond,
		WALFailAppends:    25,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if !res.OK() {
		t.Fatalf("accounting violations under a mid-run append failure:\n%s", res)
	}
	if res.Shed == 0 {
		t.Fatal("profile shed nothing; the run proves nothing")
	}
}

// TestOverloadThunderingHerdPoolSheds: the herd profile must also have
// driven the 1-worker alternative pool into shedding reads.
func TestOverloadThunderingHerdPoolSheds(t *testing.T) {
	res, err := RunOverload(OverloadConfig{
		Profile:      ThunderingHerd,
		Seed:         7,
		Workers:      10,
		OpsPerWorker: 80,
		OpBuffer:     4,
		// A big catalog makes each alternative solve heavy enough that 8
		// sticky readers reliably overrun the 1-worker/1-queued pool.
		Strategies: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("accounting violations:\n%s", res)
	}
	// Pool sheds are timing-dependent in degree but with 4 readers
	// against a 1-worker/1-queued pool under slow-apply they must occur.
	if res.ReadSheds == 0 {
		t.Fatal("no alternative-query sheds despite a saturated 1-worker pool")
	}
}

// TestOverloadOracleCatchesLostAck is the teeth test: sabotage the WAL
// between kill and restart by chopping the last appended record, so one
// acked mutation does not survive recovery. The oracle must report it —
// an oracle that stays green under this sabotage verifies nothing.
func TestOverloadOracleCatchesLostAck(t *testing.T) {
	res, err := RunOverload(OverloadConfig{
		Profile: ThunderingHerd,
		Seed:    13,
		BetweenPhases: func(dataDir string) error {
			return chopLastWALRecord(dataDir)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(res.DataDir) // kept because the run "failed" — by design
	if res.OK() {
		t.Fatal("oracle reported clean accounting despite a chopped acked record")
	}
	found := false
	for _, v := range res.Violations {
		if strings.Contains(v, "ABSENT") || strings.Contains(v, "recovered epoch") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations do not name the lost ack:\n%s", res)
	}
}

// chopLastWALRecord truncates the newest live WAL segment under root by
// its final line (one record), simulating an acked byte range lost by the
// storage layer.
func chopLastWALRecord(root string) error {
	tenants, err := os.ReadDir(root)
	if err != nil {
		return err
	}
	for _, te := range tenants {
		if !te.IsDir() {
			continue
		}
		dir := filepath.Join(root, te.Name())
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		var last string
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
				last = e.Name() // sorted by name = by first seq
			}
		}
		if last == "" {
			continue
		}
		path := filepath.Join(dir, last)
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// Drop the final newline-terminated record.
		cut := len(b)
		if cut > 0 && b[cut-1] == '\n' {
			cut--
		}
		for cut > 0 && b[cut-1] != '\n' {
			cut--
		}
		if err := os.WriteFile(path, b[:cut], 0o644); err != nil {
			return err
		}
	}
	return nil
}
