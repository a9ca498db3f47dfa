package conformance

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"stratrec/internal/wal"
)

// CrashConfig tunes a crash-recovery conformance run (RunCrash).
type CrashConfig struct {
	// Parallelism and BranchBoundLimit mean what they do in RunConfig.
	Parallelism      int
	BranchBoundLimit int
	// Cut is the event index at which the server is killed; negative
	// picks a seeded point in the middle half of the trace.
	Cut int
	// CheckpointAt is the event index after which POST /admin/checkpoint
	// fires, so recovery exercises checkpoint + tail rather than a pure
	// tail replay; negative defaults to Cut/2, and any value >= Cut
	// disables the checkpoint.
	CheckpointAt int
	// TornTail, when set, appends a cut v3 binary frame to every tenant's
	// live segment between kill and restart — the torn write an
	// interrupted append leaves — which recovery must truncate away,
	// reporting exactly the injected bytes in torn_bytes_truncated.
	TornTail bool
	// ViaBatch routes every mutation through the batched ingest endpoint
	// as a one-op batch (see RunConfig.ViaBatch), proving batch-ingested
	// mutations leave the same durable trace.
	ViaBatch bool
	// GroupCommitWindow is the WAL commit window both server incarnations
	// run with (0 = commit each batch as soon as it is appended). The
	// durability contract the oracle assumes — every acknowledged
	// mutation fsynced before its reply — holds at any window.
	GroupCommitWindow time.Duration
	// DataDir is the durability root; empty uses a fresh temp dir that is
	// removed after a divergence-free run and kept when the run diverged
	// or errored. An explicit DataDir must be empty or absent beforehand
	// and is always left in place (CrashResult.DataDir names it either
	// way), so CI can upload it as an artifact with `if: failure()`.
	DataDir string
	// OnEvent, when non-nil, is called before each event replays (both
	// phases, original trace indices).
	OnEvent func(i int, ev Event)
}

// CrashResult summarizes a crash-recovery run.
type CrashResult struct {
	Result
	// Cut is the event index the kill happened at.
	Cut int
	// CheckpointAt is the event index the mid-run checkpoint fired after
	// (-1 when the run had no checkpoint).
	CheckpointAt int
	// RecoveryDuration is how long the restarted server took to recover
	// every tenant from disk (the server.New call).
	RecoveryDuration time.Duration
	// DataDir is the durability root the run used. It still exists iff
	// the run diverged or errored.
	DataDir string
}

// RunCrash is the crash-recovery oracle: it replays a trace through a
// durable server, kills the server at an event index, restarts it from
// disk, and diffs the recovered state field-by-field against the naive
// single-threaded replay of the events the oracle saw — then keeps
// replaying the rest of the trace with the full oracle layer, proving the
// recovered server is observably the same server.
//
// The kill is faithful to a real crash for everything the client was
// told: every acknowledged mutation is fsynced before its reply, so
// closing the server publishes exactly the byte stream a SIGKILL would
// have left, and TornTail adds the one artifact a mid-append kill can
// produce.
func RunCrash(tr Trace, cfg CrashConfig) (CrashResult, error) {
	s, err := newSession(tr, RunConfig{
		Parallelism:      cfg.Parallelism,
		BranchBoundLimit: cfg.BranchBoundLimit,
		ViaBatch:         cfg.ViaBatch,
		OnEvent:          cfg.OnEvent,
	})
	if err != nil {
		return CrashResult{}, err
	}

	cut := cfg.Cut
	if cut < 0 {
		rng := rand.New(rand.NewSource(tr.Seed*1000003 + 77))
		quarter := len(tr.Events) / 4
		if quarter == 0 {
			quarter = 1
		}
		cut = quarter + rng.Intn(2*quarter)
	}
	if cut > len(tr.Events) {
		cut = len(tr.Events)
	}
	ckptAt := cfg.CheckpointAt
	if ckptAt < 0 {
		ckptAt = cut / 2
	}
	if ckptAt >= cut {
		ckptAt = -1
	}
	res := CrashResult{Result: s.res, Cut: cut, CheckpointAt: ckptAt}

	srvCfg := s.serverConfig()
	// The commit scheduler fsyncs every acknowledged mutation before its
	// reply, at any window: the durability contract under which an
	// abrupt close equals a kill.
	srvCfg.WALGroupCommitWindow = cfg.GroupCommitWindow
	n, err := newNode(srvCfg, cfg.DataDir, true)
	if err != nil {
		return res, err
	}
	res.DataDir = n.root
	err = s.crashPhases(n, &res, cfg.TornTail)
	res.Result = s.res
	n.finish(err != nil || !res.OK())
	return res, err
}

// crashPhases runs RunCrash's phases on n: live traffic to the kill
// point, the kill, recovery, the recovered-state diff and the
// continuation.
func (s *session) crashPhases(n *node, res *CrashResult, tornTail bool) error {
	// --- Phase 1: live traffic up to the kill point, with the mid-run
	// checkpoint fired after event CheckpointAt so recovery exercises
	// checkpoint + tail, not just a pure tail replay ---
	if _, err := n.start(); err != nil {
		return err
	}
	d := newDriver(n.hs, s.cfg.ViaBatch)
	mid := res.Cut
	if res.CheckpointAt >= 0 {
		mid = res.CheckpointAt + 1
	}
	stopped, err := s.replay(d, 0, mid)
	if err == nil && !stopped && res.CheckpointAt >= 0 {
		if err = postCheckpoint(d); err == nil {
			stopped, err = s.replay(d, mid, res.Cut)
		}
	}
	n.kill()
	if err != nil || stopped {
		return err
	}

	var torn int
	if tornTail {
		if torn, err = injectTornTails(n.root); err != nil {
			return err
		}
	}

	// --- Restart: recovery from checkpoint + tail inside server.New,
	// before the tenant event loops start ---
	if res.RecoveryDuration, err = n.start(); err != nil {
		return fmt.Errorf("conformance: recovery failed: %w", err)
	}
	d = newDriver(n.hs, s.cfg.ViaBatch)

	// --- Recovered-state diff: every tenant's plan snapshot against the
	// oracle's naive replay of everything that happened before the kill,
	// field by field ---
	names := slices.Sorted(maps.Keys(s.models))
	for _, name := range names {
		m := s.models[name]
		ev := Event{Tenant: name, Kind: KindPlan}
		obs, err := d.call(ev)
		if err != nil {
			return fmt.Errorf("conformance: reading recovered plan of %s: %w", name, err)
		}
		if s.compare(res.Cut, ev, m, m.expectPlan(), obs) {
			return nil
		}
	}
	if tornTail {
		// Recovery must have truncated exactly the injected bytes.
		var m struct {
			Tenants map[string]struct {
				WAL struct {
					TornBytes int `json:"torn_bytes_truncated"`
				} `json:"wal"`
			} `json:"tenants"`
		}
		metrics := httptest.NewRecorder()
		n.srv.Handler().ServeHTTP(metrics, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if err := json.Unmarshal(metrics.Body.Bytes(), &m); err != nil {
			return fmt.Errorf("conformance: decoding recovered metrics: %w", err)
		}
		for _, name := range names {
			s.res.Checks++
			if got := m.Tenants[name].WAL.TornBytes; got != torn &&
				s.diverge(res.Cut, Event{Tenant: name, Kind: KindPlan}, "wal.torn_bytes_truncated", strconv.Itoa(torn), strconv.Itoa(got)) {
				return nil
			}
		}
	}

	// --- Phase 2: the rest of the trace against the recovered server,
	// full oracle layer ---
	if stopped, err = s.replay(d, res.Cut, len(s.tr.Events)); err != nil || stopped {
		return err
	}
	s.checkListing(d)
	return nil
}

// postCheckpoint fires POST /v1/admin/checkpoint and requires success.
func postCheckpoint(d *driver) error {
	if _, err := d.c.Checkpoint(context.Background()); err != nil {
		return fmt.Errorf("conformance: checkpoint request: %w", err)
	}
	return nil
}

// injectTornTails appends a torn record to the live segment of every
// tenant directory under root, the bytes a crash mid-append leaves: a v3
// binary frame cut short. It returns how many bytes each tenant got.
func injectTornTails(root string) (int, error) {
	frame := wal.AppendRecordBinary(nil, wal.Record{Kind: wal.KindRevoke, ID: "torn"})
	torn := frame[:len(frame)-3]
	segs, err := liveSegments(root)
	if err != nil {
		return 0, err
	}
	for _, path := range segs {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return 0, err
		}
		if _, err := f.Write(torn); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return len(torn), nil
}

// liveSegments returns the path of the newest WAL segment in every
// tenant directory under root that has one.
func liveSegments(root string) ([]string, error) {
	tenants, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, te := range tenants {
		if !te.IsDir() {
			continue
		}
		dir := filepath.Join(root, te.Name())
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var last string
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
				last = e.Name() // ReadDir sorts by name = by first seq
			}
		}
		if last != "" {
			segs = append(segs, filepath.Join(dir, last))
		}
	}
	return segs, nil
}
