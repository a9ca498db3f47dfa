package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
	if _, ok := tn.Snapshot().Request("doomed"); ok {
		t.Fatal("unacked mutation visible in the published snapshot")
	}
	if _, err := tn.Submit(context.Background(), strategy.Request{ID: "after", Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1}); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("write after failed round: %v, want ErrWALBroken", err)
	}
	snapshotsEqual(t, want, tn.Snapshot())
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
	want := tn.Snapshot()
	if _, ok := want.Request("first"); ok {
		t.Fatal("rolled-back mutation visible in the published snapshot")
	}
	if _, ok := want.Request("gate"); !ok {
		t.Fatal("durably committed gate submit missing from the snapshot")
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
