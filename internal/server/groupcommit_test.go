package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stratrec/internal/strategy"
	"stratrec/internal/stream"
	"stratrec/internal/wal"
)

// TestGroupCommitDurability: with the cross-tenant commit scheduler on,
// every acknowledged mutation still survives a restart — the fsync moved
// into a shared round, not past the acknowledgement.
func TestGroupCommitDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tenants: map[string]TenantConfig{
			"alpha": fixedTenant(6, 0.7),
			"beta":  synthTenant(5, 24, 0.6),
			"gamma": fixedTenant(4, 0.5),
		},
		DataDir:              dir,
		WALGroupCommitWindow: 500 * time.Microsecond,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent per-tenant writers, so batches from different tenants
	// finish close together and can share rounds.
	var wg sync.WaitGroup
	for _, name := range s1.TenantNames() {
		tn, _ := s1.Tenant(name)
		wg.Add(1)
		go func(name string, tn *Tenant) {
			defer wg.Done()
			driveMutations(t, tn, 200, int64(len(name)))
		}(name, tn)
	}
	wg.Wait()
	want := map[string]*stream.Snapshot{}
	for _, name := range s1.TenantNames() {
		tn, _ := s1.Tenant(name)
		want[name] = tn.Snapshot()
		if tn.wal.Syncs() == 0 || tn.wal.Appends() == 0 {
			t.Fatalf("tenant %s never hit the scheduler: %d appends, %d syncs", name, tn.wal.Appends(), tn.wal.Syncs())
		}
	}
	// Every sync went through the scheduler: commits count log-sync
	// requests, rounds the shared fsync windows that served them.
	if rounds, commits := s1.gc.rounds.Load(), s1.gc.commits.Load(); rounds == 0 || commits < rounds {
		t.Fatalf("scheduler accounting: %d rounds, %d commits", rounds, commits)
	}
	s1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for name, w := range want {
		tn, err := s2.Tenant(name)
		if err != nil {
			t.Fatal(err)
		}
		snapshotsEqual(t, w, tn.Snapshot())
	}
}

// TestGroupCommitFailureNoTrace: after a failed commit round the ops it
// covered get ErrWALBroken, the tenant goes read-only, readers never
// observe the unacked writes, and
// the restart rebuilds exactly the durable prefix. The WAL's rollback
// guarantees the failed round's records cannot resurface even though the
// buffered writer may already have spilled them into the segment file.
func TestGroupCommitFailureNoTrace(t *testing.T) {
	dir := t.TempDir()
	var failing atomic.Bool
	tcfg := fixedTenant(6, 0.7)
	tcfg.Faults = &Faults{WALSync: func() error {
		if failing.Load() {
			return errors.New("injected fsync failure")
		}
		return nil
	}}
	cfg := Config{
		Tenants:              map[string]TenantConfig{"alpha": tcfg},
		DataDir:              dir,
		WALGroupCommitWindow: 200 * time.Microsecond,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := s1.Tenant("alpha")
	driveMutations(t, tn, 40, 31)
	want := tn.Snapshot()

	failing.Store(true)
	_, err = tn.Submit(context.Background(), strategy.Request{ID: "doomed", Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1})
	if !errors.Is(err, ErrWALBroken) {
		t.Fatalf("submit through failing commit round: %v, want ErrWALBroken", err)
	}
	if _, ok := tn.planView().Request("doomed"); ok {
		t.Fatal("unacked mutation visible in the published snapshot")
	}
	if _, err := tn.Submit(context.Background(), strategy.Request{ID: "after", Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1}); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("write after failed round: %v, want ErrWALBroken", err)
	}
	snapshotsEqual(t, want, tn.Snapshot())
	if n := s1.gc.busy.Load(); n != 0 {
		t.Fatalf("busy = %d after the failed round, want 0", n)
	}
	s1.Close()

	// Restart without the fault: exactly the acknowledged state returns.
	cfg.Tenants = map[string]TenantConfig{"alpha": fixedTenant(6, 0.7)}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tn2, _ := s2.Tenant("alpha")
	snapshotsEqual(t, want, tn2.Snapshot())
}

// TestGroupCommitMidBatchAppendFailureNoLostRollback: under group
// commit a whole coalesced batch is buffered between fsyncs, so a WAL
// append failure mid-batch rolls the log back past the batch's earlier
// records too. Those earlier ops applied cleanly and their appends
// succeeded — but their records are gone, so acknowledging them would
// be an acked-then-absent durability violation. Every op of the failed
// batch must answer ErrWALBroken, the snapshot must stay pre-batch, and
// the restart must rebuild exactly the durable prefix.
func TestGroupCommitMidBatchAppendFailureNoLostRollback(t *testing.T) {
	dir := t.TempDir()
	gateEntered := make(chan struct{})
	gateRelease := make(chan struct{})
	tcfg := fixedTenant(6, 0.7)
	appends := 0 // loop goroutine only, per Faults contract
	tcfg.Faults = &Faults{
		ApplyDelay: func(kind, id string) time.Duration {
			if id == "gate" {
				close(gateEntered)
				<-gateRelease
			}
			return 0
		},
		// Appends: #1 the gate submit (committed durably by its own
		// round), then the 3-op batch below: #2 succeeds (buffered),
		// #3 fails mid-batch.
		WALAppend: func() error {
			appends++
			if appends == 3 {
				return errors.New("injected append failure")
			}
			return nil
		},
	}
	cfg := Config{
		Tenants:              map[string]TenantConfig{"alpha": tcfg},
		DataDir:              dir,
		WALGroupCommitWindow: 200 * time.Microsecond,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := s1.Tenant("alpha")

	// Block the loop inside the gate submit's apply, queue three ops
	// behind it, then release: the loop drains all three into one
	// coalesced batch.
	gateDone := make(chan error, 1)
	go func() {
		_, err := tn.Submit(context.Background(), strategy.Request{ID: "gate", Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1})
		gateDone <- err
	}()
	<-gateEntered
	batch := []op{
		{kind: opSubmit, req: strategy.Request{ID: "first", Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1}},
		{kind: opSubmit, req: strategy.Request{ID: "doomed", Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1}},
		{kind: opSubmit, req: strategy.Request{ID: "after", Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1}},
	}
	type applied struct {
		results []opResult
		err     error
	}
	batchDone := make(chan applied, 1)
	go func() {
		results, err := tn.enqueue(context.Background(), batch)
		batchDone <- applied{results, err}
	}()
	// The enqueue path is non-blocking, so once all three ops sit in the
	// inbox the loop is guaranteed to drain them together.
	for len(tn.ops) < len(batch) {
		runtime.Gosched()
	}
	close(gateRelease)
	if err := <-gateDone; err != nil {
		t.Fatalf("gate submit: %v", err)
	}
	got := <-batchDone
	if got.err != nil {
		t.Fatalf("enqueue refused the batch as a unit: %v", got.err)
	}
	for i, res := range got.results {
		// "first" is the op the rollback destroys behind a successful
		// append: acknowledging it (err == nil) is the acked-then-absent
		// bug this test pins down.
		if !errors.Is(res.err, ErrWALBroken) {
			t.Fatalf("batch op %d (%s): err %v, want ErrWALBroken", i, batch[i].req.ID, res.err)
		}
	}
	v := tn.planView()
	want := v.Snapshot()
	if _, ok := v.Request("first"); ok {
		t.Fatal("rolled-back mutation visible in the published snapshot")
	}
	if _, ok := v.Request("gate"); !ok {
		t.Fatal("durably committed gate submit missing from the snapshot")
	}
	if n := s1.gc.busy.Load(); n != 0 {
		t.Fatalf("busy = %d after the failed batch, want 0: its cycle neither committed nor left", n)
	}
	s1.Close()

	// Restart without the fault: exactly the durable prefix — the gate
	// submit, none of the failed batch — comes back.
	cfg.Tenants = map[string]TenantConfig{"alpha": fixedTenant(6, 0.7)}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tn2, _ := s2.Tenant("alpha")
	snapshotsEqual(t, want, tn2.Snapshot())
}

// TestGroupCommitConcurrentTenantsUnderRace is the -race exercise for the
// scheduler hand-off: many tenants, many writers per tenant, a real
// window, and a full cross-check of every acknowledged op after restart.
func TestGroupCommitConcurrentTenantsUnderRace(t *testing.T) {
	dir := t.TempDir()
	tenants := map[string]TenantConfig{}
	for i := 0; i < 4; i++ {
		tenants[fmt.Sprintf("t%d", i)] = fixedTenant(5, 0.6)
	}
	cfg := Config{
		Tenants:              tenants,
		DataDir:              dir,
		WALGroupCommitWindow: time.Millisecond,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, name := range s1.TenantNames() {
		tn, _ := s1.Tenant(name)
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(tn *Tenant, w int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					id := fmt.Sprintf("w%d-%d", w, i)
					if _, err := tn.Submit(context.Background(), strategy.Request{ID: id, Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1}); err != nil {
						t.Errorf("submit %s: %v", id, err)
						return
					}
					if i%2 == 0 {
						if _, err := tn.Revoke(context.Background(), id); err != nil {
							t.Errorf("revoke %s: %v", id, err)
							return
						}
					}
				}
			}(tn, w)
		}
	}
	wg.Wait()
	want := map[string]*stream.Snapshot{}
	for _, name := range s1.TenantNames() {
		tn, _ := s1.Tenant(name)
		want[name] = tn.Snapshot()
	}
	s1.Close()
	if n := s1.gc.busy.Load(); n != 0 {
		t.Fatalf("busy = %d after Close, want 0: a mutation cycle neither committed nor left", n)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for name, w := range want {
		tn, _ := s2.Tenant(name)
		snapshotsEqual(t, w, tn.Snapshot())
	}
}

// TestGroupCommitDirectSyncFallback: a commit racing scheduler shutdown
// resolves through the direct-fsync fallback — same durability, no
// sharing — and is accounted in direct_syncs, not rounds/commits.
func TestGroupCommitDirectSyncFallback(t *testing.T) {
	l, _, err := wal.Open(t.TempDir(), wal.Options{SyncManual: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	gc := newGroupCommitter(time.Millisecond)

	// Through the live scheduler: a round, no direct sync.
	if err := gc.commit(l); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if gc.rounds.Load() != 1 || gc.commits.Load() != 1 || gc.directSyncs.Load() != 0 {
		t.Fatalf("live commit accounting: rounds=%d commits=%d direct=%d",
			gc.rounds.Load(), gc.commits.Load(), gc.directSyncs.Load())
	}

	gc.stop()
	// A buffered append makes the fallback's fsync observable: Sync on a
	// clean log is a no-op and would not move the counter.
	if _, err := l.Append(wal.Record{Kind: wal.KindAvailability, W: 0.5, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	syncsBefore := l.Syncs()
	if err := gc.commit(l); err != nil {
		t.Fatalf("commit after stop: %v", err)
	}
	if l.Syncs() != syncsBefore+1 {
		t.Fatalf("fallback skipped the fsync: %d syncs, want %d", l.Syncs(), syncsBefore+1)
	}
	if gc.directSyncs.Load() != 1 {
		t.Fatalf("direct_syncs = %d, want 1", gc.directSyncs.Load())
	}
	if gc.rounds.Load() != 1 || gc.commits.Load() != 1 {
		t.Fatalf("fallback leaked into round accounting: rounds=%d commits=%d",
			gc.rounds.Load(), gc.commits.Load())
	}
}

// TestServerCloseOrderingNoDirectSyncs: Server.Close stops tenant loops
// before the commit scheduler, so even a Close racing live writers must
// leave direct_syncs at zero — a nonzero value means ops could still be
// asking a dead scheduler for durability.
func TestServerCloseOrderingNoDirectSyncs(t *testing.T) {
	cfg := Config{
		Tenants: map[string]TenantConfig{
			"alpha": fixedTenant(6, 0.7),
			"beta":  fixedTenant(5, 0.6),
		},
		DataDir:              t.TempDir(),
		WALGroupCommitWindow: 500 * time.Microsecond,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Writers run through the Close: late submits answer ErrTenantClosed,
	// which is fine — the point is they must never hit the fallback path.
	var wg sync.WaitGroup
	for _, name := range s.TenantNames() {
		tn, _ := s.Tenant(name)
		wg.Add(1)
		go func(tn *Tenant) {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := tn.Submit(context.Background(), strategy.Request{
					ID: fmt.Sprintf("r%d", i), Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1,
				})
				if err != nil {
					return // loop closed under us
				}
			}
		}(tn)
	}
	time.Sleep(5 * time.Millisecond) // let traffic overlap the Close
	s.Close()
	wg.Wait()
	if n := s.gc.directSyncs.Load(); n != 0 {
		t.Fatalf("Server.Close left %d direct syncs — tenant loops outlived the scheduler", n)
	}
	if s.gc.rounds.Load() == 0 {
		t.Fatal("no commit rounds — the test never exercised the scheduler")
	}
	if n := s.gc.busy.Load(); n != 0 {
		t.Fatalf("busy = %d after Close, want 0: a mutation cycle neither committed nor left", n)
	}
}

// TestZeroWindowCommitsEachBatch: a durable server without a window still
// commits through the scheduler, each batch as soon as it is appended —
// N sequential single-op submits are N rounds and N fsyncs, none of them
// outside the scheduler.
func TestZeroWindowCommitsEachBatch(t *testing.T) {
	s, err := New(Config{
		Tenants: map[string]TenantConfig{"alpha": fixedTenant(6, 0.7)},
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tn, _ := s.Tenant("alpha")
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := tn.Submit(context.Background(), submitReqN(fmt.Sprintf("z%d", i), 0.52)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	rounds, syncs, direct := s.gc.rounds.Load(), tn.wal.Syncs(), s.gc.directSyncs.Load()
	if rounds != n || syncs != n || direct != 0 {
		t.Fatalf("rounds=%d syncs=%d direct_syncs=%d, want %d, %d, 0", rounds, syncs, direct, n, n)
	}
}

// timedResult is a submit's error and how long the call took.
type timedResult struct {
	err     error
	elapsed time.Duration
}

// timedSubmit submits id in the background.
func timedSubmit(tn *Tenant, id string) <-chan timedResult {
	done := make(chan timedResult, 1)
	go func() {
		start := time.Now()
		_, err := tn.Submit(context.Background(), submitReqN(id, 0.52))
		done <- timedResult{err, time.Since(start)}
	}()
	return done
}

// TestGroupCommitLoneTenantSkipsWindow: a round that no other loop can
// join closes at once, so a lone durable tenant never waits out even a
// 10 s window, and no round is held.
func TestGroupCommitLoneTenantSkipsWindow(t *testing.T) {
	s, err := New(Config{
		Tenants:              map[string]TenantConfig{"alpha": fixedTenant(6, 0.7)},
		DataDir:              t.TempDir(),
		WALGroupCommitWindow: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tn, _ := s.Tenant("alpha")
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := tn.Submit(context.Background(), submitReqN(fmt.Sprintf("l%d", i), 0.52)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("submit %d took %v: the round waited for an idle loop", i, d)
		}
	}
	if rounds, held, busy := s.gc.rounds.Load(), s.gc.heldRounds.Load(), s.gc.busy.Load(); rounds != 5 || held != 0 || busy != 0 {
		t.Fatalf("rounds=%d heldRounds=%d busy=%d, want 5, 0, 0", rounds, held, busy)
	}
}

// TestGroupCommitWaitsForBusyLoop: while beta's loop is mid-cycle, the
// round alpha opened waits for it, and closes as soon as beta's cycle
// ends, far inside the 10 s window: when beta commits, both logs sync in
// that one round; when beta's cycle appends nothing (a revoke of an
// unknown ID) and leaves, alpha's log syncs alone.
func TestGroupCommitWaitsForBusyLoop(t *testing.T) {
	for _, tc := range []struct {
		name    string
		held    func(*Tenant) error
		wantErr bool
		commits int64
	}{
		{"commit", func(tn *Tenant) error {
			_, err := tn.Submit(context.Background(), submitReqN("b1", 0.52))
			return err
		}, false, 2},
		{"leave", func(tn *Tenant) error {
			_, err := tn.Revoke(context.Background(), "ghost")
			return err
		}, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			beta, gate, entered := gatedTenantConfig(1, 1)
			s, err := New(Config{
				Tenants:              map[string]TenantConfig{"alpha": fixedTenant(6, 0.7), "beta": beta},
				DataDir:              t.TempDir(),
				WALGroupCommitWindow: 10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Released before Close on every path, or Close would wait
			// for beta's held loop forever.
			release := sync.OnceFunc(func() { close(gate) })
			defer release()
			ta, _ := s.Tenant("alpha")
			tb, _ := s.Tenant("beta")
			rounds, commits := s.gc.rounds.Load(), s.gc.commits.Load()

			betaDone := make(chan error, 1)
			go func() { betaDone <- tc.held(tb) }()
			entered.Wait()
			alphaDone := timedSubmit(ta, "a1")
			for s.gc.heldRounds.Load() == 0 {
				runtime.Gosched()
			}
			select {
			case r := <-alphaDone:
				t.Fatalf("alpha returned (%v) while beta, a loop that could still join its round, was held", r.err)
			case <-time.After(50 * time.Millisecond):
			}
			released := time.Now()
			release()
			if err := <-betaDone; (err != nil) != tc.wantErr {
				t.Fatalf("beta's held op: %v, want error %v", err, tc.wantErr)
			}
			if r := <-alphaDone; r.err != nil {
				t.Fatalf("alpha submit: %v", r.err)
			}
			if d := time.Since(released); d > 2*time.Second {
				t.Fatalf("alpha's round closed %v after beta's cycle ended", d)
			}
			if dr, dc, mr := s.gc.rounds.Load()-rounds, s.gc.commits.Load()-commits, s.gc.maxRound.Load(); dr != 1 || dc != tc.commits || mr != tc.commits {
				t.Fatalf("rounds +%d, commits +%d, max_round %d; want +1, +%d, %d", dr, dc, mr, tc.commits, tc.commits)
			}
			if held, exp, busy := s.gc.heldRounds.Load(), s.gc.windowExpiries.Load(), s.gc.busy.Load(); held != 1 || exp != 0 || busy != 0 {
				t.Fatalf("heldRounds=%d windowExpiries=%d busy=%d, want 1, 0, 0", held, exp, busy)
			}
		})
	}
}

// TestGroupCommitWindowCapsBusyWait: the window still caps the wait for
// a busy loop. With beta held far past a 50 ms window, alpha's round
// closes when the window expires, while beta is still held.
func TestGroupCommitWindowCapsBusyWait(t *testing.T) {
	const window = 50 * time.Millisecond
	beta, gate, entered := gatedTenantConfig(1, 1)
	s, err := New(Config{
		Tenants:              map[string]TenantConfig{"alpha": fixedTenant(6, 0.7), "beta": beta},
		DataDir:              t.TempDir(),
		WALGroupCommitWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	ta, _ := s.Tenant("alpha")
	tb, _ := s.Tenant("beta")

	betaDone := timedSubmit(tb, "b1")
	entered.Wait()
	select {
	case r := <-timedSubmit(ta, "a1"):
		if r.err != nil {
			t.Fatalf("alpha submit: %v", r.err)
		}
		if r.elapsed < window {
			t.Fatalf("alpha returned after %v, before the %v window closed its held round", r.elapsed, window)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("alpha still waiting 5 s into beta's hold: the window did not cap the round")
	}
	if exp := s.gc.windowExpiries.Load(); exp != 1 {
		t.Fatalf("windowExpiries = %d, want 1", exp)
	}
	release()
	if r := <-betaDone; r.err != nil {
		t.Fatalf("beta submit: %v", r.err)
	}
	if held, exp, busy := s.gc.heldRounds.Load(), s.gc.windowExpiries.Load(), s.gc.busy.Load(); held != 1 || exp != 1 || busy != 0 {
		t.Fatalf("heldRounds=%d windowExpiries=%d busy=%d, want 1, 1, 0", held, exp, busy)
	}
}

// BenchmarkGroupCommit drives real WAL logs (real fsync, under
// b.TempDir) through the commit scheduler the way tenant loops do: each
// of the tenants' loops runs b.N cycles of enter, append records,
// commit. direct is the same loop calling Log.Sync itself, with no
// scheduler. Reported: ops/s (records made durable per second), the
// commit wait's p50/p99 in µs, fsyncs per op and, through the
// scheduler, logs per round.
func BenchmarkGroupCommit(b *testing.B) {
	modes := []struct {
		name   string
		window time.Duration
		direct bool
	}{
		{"window=0", 0, false},
		{"window=500us", 500 * time.Microsecond, false},
		{"direct", 0, true},
	}
	for _, tenants := range []int{1, 2, 8, 32} {
		for _, m := range modes {
			for _, records := range []int{1, 32} {
				b.Run(fmt.Sprintf("tenants=%d/%s/records=%d", tenants, m.name, records), func(b *testing.B) {
					benchGroupCommit(b, tenants, records, m.window, m.direct)
				})
			}
		}
	}
}

func benchGroupCommit(b *testing.B, tenants, records int, window time.Duration, direct bool) {
	dir := b.TempDir()
	logs := make([]*wal.Log, tenants)
	for i := range logs {
		l, _, err := wal.Open(filepath.Join(dir, fmt.Sprint(i)), wal.Options{SyncManual: true})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		logs[i] = l
	}
	var gc *groupCommitter
	if !direct {
		gc = newGroupCommitter(window)
		defer gc.stop()
	}
	var syncs0 uint64
	for _, l := range logs {
		syncs0 += l.Syncs()
	}
	waits := make([][]time.Duration, tenants)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for i, l := range logs {
		waits[i] = make([]time.Duration, 0, b.N)
		wg.Add(1)
		go func(i int, l *wal.Log) {
			defer wg.Done()
			rec := wal.Record{Kind: wal.KindAvailability, W: 0.5}
			for n := 0; n < b.N; n++ {
				if gc != nil {
					gc.enter()
				}
				for r := 0; r < records; r++ {
					rec.Epoch++
					if _, err := l.Append(rec); err != nil {
						b.Error(err)
						return
					}
				}
				t0 := time.Now()
				var err error
				if gc != nil {
					err = gc.commit(l)
				} else {
					err = l.Sync()
				}
				waits[i] = append(waits[i], time.Since(t0))
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(i, l)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	all := slices.Sorted(slices.Values(slices.Concat(waits...)))
	if len(all) == 0 {
		return
	}
	var syncs uint64
	for _, l := range logs {
		syncs += l.Syncs()
	}
	ops := float64(tenants * records * b.N)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	b.ReportMetric(ops/elapsed.Seconds(), "ops/s")
	b.ReportMetric(us(all[len(all)/2]), "wait_p50_us")
	b.ReportMetric(us(all[len(all)*99/100]), "wait_p99_us")
	b.ReportMetric(float64(syncs-syncs0)/ops, "fsyncs/op")
	if gc != nil {
		b.ReportMetric(float64(gc.commits.Load())/float64(max(gc.rounds.Load(), 1)), "logs/round")
	}
}
