package conformance

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"stratrec/internal/server"
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
	// removed after a divergence-free run and kept when divergences were
	// found. An explicit DataDir must be empty beforehand and is always
	// left in place (CrashResult.DataDir names it either way), so CI can
	// upload it as an artifact with `if: failure()`.
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
	if tr.Version != FormatVersion {
		return CrashResult{}, fmt.Errorf("conformance: trace version %d, this build replays %d", tr.Version, FormatVersion)
	}
	rcfg := RunConfig{
		Parallelism:      cfg.Parallelism,
		BranchBoundLimit: cfg.BranchBoundLimit,
		ViaBatch:         cfg.ViaBatch,
	}.withDefaults()

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

	res := CrashResult{Cut: cut, CheckpointAt: ckptAt}
	res.Events = len(tr.Events)

	dataDir := cfg.DataDir
	if dataDir == "" {
		tmp, err := os.MkdirTemp("", "stratrec-crash-*")
		if err != nil {
			return res, err
		}
		dataDir = tmp
	}
	res.DataDir = dataDir
	if cfg.DataDir != "" {
		if entries, err := os.ReadDir(dataDir); err == nil && len(entries) > 0 {
			// Phase 1 must start from nothing: leftover tenant state would
			// be recovered into the pre-kill server and every oracle
			// expectation would be off by a whole previous run.
			return res, fmt.Errorf("conformance: crash data dir %s is not empty", dataDir)
		}
	}
	keep := false
	defer func() {
		if !keep && cfg.DataDir == "" {
			os.RemoveAll(dataDir)
		}
	}()

	models := make(map[string]*tenantModel, len(tr.Tenants))
	srvCfg := server.Config{
		Tenants: map[string]server.TenantConfig{},
		Now:     func() time.Time { return time.Unix(1700000000, 0) },
		DataDir: dataDir,
		// The commit scheduler fsyncs every acknowledged mutation before
		// its reply, at any window: the durability contract under which
		// an abrupt close equals a kill.
		WALGroupCommitWindow: cfg.GroupCommitWindow,
	}
	for _, spec := range tr.Tenants {
		if _, dup := models[spec.Name]; dup {
			return res, fmt.Errorf("conformance: duplicate tenant %q", spec.Name)
		}
		m, err := newTenantModel(spec)
		if err != nil {
			return res, err
		}
		models[spec.Name] = m
		srvCfg.Tenants[spec.Name] = server.TenantConfig{
			Set:         m.set,
			Models:      m.models,
			Mode:        m.mode,
			Objective:   m.objective,
			InitialW:    spec.InitialW,
			Parallelism: cfg.Parallelism,
		}
	}

	diverge := func(i int, ev Event, field, want, got string) bool {
		res.Divergences = append(res.Divergences, Divergence{
			Index: i, Event: ev, Field: field, Want: want, Got: got,
		})
		return len(res.Divergences) >= rcfg.MaxDivergences
	}

	// --- Phase 1: live traffic up to the kill point, with the mid-run
	// checkpoint fired after event ckptAt so recovery exercises
	// checkpoint + tail, not just a pure tail replay ---
	s1, err := server.New(srvCfg)
	if err != nil {
		return res, err
	}
	hs1 := httptest.NewServer(s1.Handler())
	drv1 := newDriver(hs1, cfg.ViaBatch)
	phase1 := func() (bool, error) {
		if ckptAt < 0 {
			return replayRange(drv1, tr, 0, cut, models, rcfg, cfg.OnEvent, &res.Result, diverge)
		}
		stopped, err := replayRange(drv1, tr, 0, ckptAt+1, models, rcfg, cfg.OnEvent, &res.Result, diverge)
		if stopped || err != nil {
			return stopped, err
		}
		if err := postCheckpoint(drv1); err != nil {
			return false, err
		}
		return replayRange(drv1, tr, ckptAt+1, cut, models, rcfg, cfg.OnEvent, &res.Result, diverge)
	}
	stopped, err := phase1()
	hs1.Close()
	s1.Close() // the kill: loops stop, WAL closes with only-acked bytes
	if err != nil {
		keep = true
		return res, err
	}
	if stopped {
		keep = true
		return res, nil
	}

	var torn int
	if cfg.TornTail {
		if torn, err = injectTornTails(dataDir); err != nil {
			keep = true
			return res, err
		}
	}

	// --- Restart: recovery from checkpoint + tail inside server.New,
	// before the tenant event loops start ---
	start := time.Now() //lint:allow clockdiscipline -- RecoveryDuration reports real restart latency to the operator
	s2, err := server.New(srvCfg)
	res.RecoveryDuration = time.Since(start) //lint:allow clockdiscipline -- RecoveryDuration reports real restart latency to the operator
	if err != nil {
		keep = true
		return res, fmt.Errorf("conformance: recovery failed: %w", err)
	}
	hs2 := httptest.NewServer(s2.Handler())
	drv2 := newDriver(hs2, cfg.ViaBatch)
	defer func() {
		hs2.Close()
		s2.Close()
	}()

	// --- Recovered-state diff: every tenant's plan snapshot against the
	// oracle's naive replay of everything that happened before the kill,
	// field by field ---
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := models[name]
		ev := Event{Tenant: name, Kind: KindPlan}
		obs, err := drv2.call(ev)
		if err != nil {
			keep = true
			return res, fmt.Errorf("conformance: reading recovered plan of %s: %w", name, err)
		}
		exp := m.expectPlan()
		if compare(cut, ev, m, rcfg, exp, obs, &res.Result, diverge) {
			keep = true
			return res, nil
		}
	}
	if cfg.TornTail {
		// Recovery must have truncated exactly the injected bytes.
		var m struct {
			Tenants map[string]struct {
				WAL struct {
					TornBytes int `json:"torn_bytes_truncated"`
				} `json:"wal"`
			} `json:"tenants"`
		}
		metrics := httptest.NewRecorder()
		s2.Handler().ServeHTTP(metrics, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if err := json.Unmarshal(metrics.Body.Bytes(), &m); err != nil {
			keep = true
			return res, fmt.Errorf("conformance: decoding recovered metrics: %w", err)
		}
		for _, name := range names {
			res.Checks++
			if got := m.Tenants[name].WAL.TornBytes; got != torn &&
				diverge(cut, Event{Tenant: name, Kind: KindPlan}, "wal.torn_bytes_truncated", strconv.Itoa(torn), strconv.Itoa(got)) {
				keep = true
				return res, nil
			}
		}
	}

	// --- Phase 2: the rest of the trace against the recovered server,
	// full oracle layer ---
	stopped, err = replayRange(drv2, tr, cut, len(tr.Events), models, rcfg, cfg.OnEvent, &res.Result, diverge)
	if err != nil {
		keep = true
		return res, err
	}
	if !stopped && len(res.Divergences) < rcfg.MaxDivergences {
		checkListing(drv2, tr, models, &res.Result, diverge)
	}
	if len(res.Divergences) > 0 {
		keep = true
	}
	return res, nil
}

// replayRange replays tr.Events[from:to] against a live server, applying
// each event to the oracle models and comparing, exactly as Run does. It
// fires the mid-run checkpoint when the range crosses CheckpointAt (the
// caller encodes that by the from/to bounds — see RunCrash). Returns true
// when the divergence budget stopped the replay.
func replayRange(d *driver, tr Trace, from, to int, models map[string]*tenantModel, rcfg RunConfig, onEvent func(int, Event), out *Result, diverge func(int, Event, string, string, string) bool) (stopped bool, err error) {
	for i := from; i < to; i++ {
		ev := tr.Events[i]
		if onEvent != nil {
			onEvent(i, ev)
		}
		m, ok := models[ev.Tenant]
		if !ok {
			return false, fmt.Errorf("conformance: event %d targets unknown tenant %q", i, ev.Tenant)
		}
		obs, err := d.call(ev)
		if err != nil {
			return false, fmt.Errorf("conformance: event %d (%s %s): %w", i, ev.Kind, ev.ID, err)
		}
		var exp expectation
		switch ev.Kind {
		case KindSubmit:
			exp = m.applySubmit(ev)
		case KindRevoke:
			exp = m.applyRevoke(ev)
		case KindDrift:
			exp = m.applyDrift(ev)
		case KindPlan:
			exp = m.expectPlan()
		case KindAlternative:
			exp, err = m.expectAlternative(ev)
			if err != nil {
				return false, fmt.Errorf("conformance: event %d: oracle: %w", i, err)
			}
		default:
			return false, fmt.Errorf("conformance: event %d has unknown kind %q", i, ev.Kind)
		}
		if compare(i, ev, m, rcfg, exp, obs, out, diverge) {
			return true, nil
		}
	}
	return false, nil
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
	tenants, err := os.ReadDir(root)
	if err != nil {
		return 0, err
	}
	for _, te := range tenants {
		if !te.IsDir() {
			continue
		}
		dir := filepath.Join(root, te.Name())
		entries, err := os.ReadDir(dir)
		if err != nil {
			return 0, err
		}
		var last string
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
				last = e.Name() // ReadDir sorts by name = by first seq
			}
		}
		if last == "" {
			continue
		}
		f, err := os.OpenFile(filepath.Join(dir, last), os.O_APPEND|os.O_WRONLY, 0o644)
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
