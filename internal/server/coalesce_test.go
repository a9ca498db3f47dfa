package server

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"stratrec/internal/strategy"
	"stratrec/internal/wal"
)

// submitReq builds the fixedTenant-style request used across the
// coalescing tests: quality q gives requirement (q-0.2)/0.8.
func submitReq(id string, q float64) strategy.Request {
	return strategy.Request{ID: id, Params: strategy.Params{Quality: q, Cost: 0.9, Latency: 0.9}, K: 1}
}

// gateTenant builds a server whose single tenant's event loop can be
// stalled from the test: the first OnApply closes stalled (the loop is
// parked) and blocks until gate is closed, so mutations issued meanwhile
// pile up in the inbox and the next cycle must drain them as one
// coalesced batch.
func gateTenant(t *testing.T, coalesce int, dataDir string) (*Server, *Tenant, chan struct{}, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	stalled := make(chan struct{})
	var once sync.Once
	tc := fixedTenant(4, 0.7)
	tc.Coalesce = coalesce
	tc.OpBuffer = 256
	tc.OnApply = func(AppliedOp) {
		once.Do(func() {
			close(stalled)
			<-gate
		})
	}
	cfg := Config{Tenants: map[string]TenantConfig{"alpha": tc}, DataDir: dataDir}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	tn, err := s.Tenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	return s, tn, gate, stalled
}

// stallFirst issues the gating first submit asynchronously and waits
// until the event loop is parked inside its OnApply.
func stallFirst(t *testing.T, tn *Tenant, stalled chan struct{}) chan error {
	t.Helper()
	firstErr := make(chan error, 1)
	go func() {
		_, err := tn.Submit(context.Background(), submitReq("first", 0.52))
		firstErr <- err
	}()
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("event loop never reached the gate")
	}
	return firstErr
}

// waitQueued polls until n ops are parked in the tenant inbox.
func waitQueued(t *testing.T, tn *Tenant, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(tn.ops) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d ops queued", len(tn.ops), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescedBatchDrainsQueue pins the coalescing mechanics
// deterministically: with the loop stalled on its first op, K queued
// mutations must be applied in a single replan cycle — two batches total,
// K+1 ops — with per-op epochs still distinct and consecutive
// (pool-generation semantics), and every reply arriving only after the
// batch's view publish (read-your-writes).
func TestCoalescedBatchDrainsQueue(t *testing.T) {
	const k = 12
	_, tn, gate, stalled := gateTenant(t, 32, "")
	firstErr := stallFirst(t, tn, stalled)

	type reply struct {
		id  string
		res SubmitResult
		err error
	}
	replies := make(chan reply, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("q%02d", i)
			res, err := tn.Submit(context.Background(), submitReq(id, 0.52))
			// The reply is sent after the batch's view publish: the
			// published view must already contain this submission.
			if err == nil {
				if _, ok := tn.planView().Request(id); !ok {
					t.Errorf("read-your-writes violated: %s missing after its ack", id)
				}
			}
			replies <- reply{id: id, res: res, err: err}
		}(i)
	}
	waitQueued(t, tn, k)
	close(gate) // release the stalled first apply; next cycle drains all k
	if err := <-firstErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(replies)

	epochs := map[uint64]bool{}
	for r := range replies {
		if r.err != nil {
			t.Fatalf("submit %s: %v", r.id, r.err)
		}
		if epochs[r.res.Epoch] {
			t.Fatalf("epoch %d acknowledged twice", r.res.Epoch)
		}
		epochs[r.res.Epoch] = true
		if r.res.Epoch < 2 || r.res.Epoch > k+1 {
			t.Fatalf("epoch %d outside the expected pool-generation range [2,%d]", r.res.Epoch, k+1)
		}
	}
	if got := tn.met.batches.Value(); got != 2 {
		t.Fatalf("coalesced_batches = %d, want 2 (first op alone, then one drained batch)", got)
	}
	if got := tn.met.batchedOps.Value(); got != k+1 {
		t.Fatalf("coalesced_ops = %d, want %d", got, k+1)
	}
	snap := tn.Snapshot()
	if len(snap.Requests) != k+1 || snap.Epoch != k+1 {
		t.Fatalf("final snapshot: %d open at epoch %d, want %d at %d", len(snap.Requests), snap.Epoch, k+1, k+1)
	}
}

// TestCoalescedAckImpliesLogged drives a coalesced batch with durability
// on and verifies the WAL invariants survive coalescing: one record per
// mutation in apply order, epochs advancing by exactly one per record,
// submit records carrying the requirement fingerprint — and a restart
// rebuilding byte-identical state from that log.
func TestCoalescedAckImpliesLogged(t *testing.T) {
	const k = 10
	dir := t.TempDir()
	s1, tn, gate, stalled := gateTenant(t, 32, dir)
	firstErr := stallFirst(t, tn, stalled)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == k-1 {
				if _, err := tn.SetAvailability(context.Background(), 0.6); err != nil {
					t.Errorf("drift: %v", err)
				}
				return
			}
			if _, err := tn.Submit(context.Background(), submitReq(fmt.Sprintf("q%02d", i), 0.52)); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(i)
	}
	waitQueued(t, tn, k)
	close(gate)
	if err := <-firstErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if got := tn.wal.Appends(); got != k+1 {
		t.Fatalf("wal appends = %d, want one per mutation = %d", got, k+1)
	}
	want := tn.Snapshot()
	s1.Close()

	rec, err := wal.Scan(filepath.Join(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != k+1 {
		t.Fatalf("scanned %d records, want %d", len(rec.Tail), k+1)
	}
	for i, r := range rec.Tail {
		if r.Epoch != uint64(i+1) {
			t.Fatalf("record %d: epoch %d, want %d (one step per mutation)", i, r.Epoch, i+1)
		}
		if r.Kind == wal.KindSubmit && (r.Infeasible || r.Req <= 0) {
			t.Fatalf("record %d: submit missing requirement fingerprint: %+v", i, r)
		}
	}

	s2, err := New(Config{Tenants: map[string]TenantConfig{"alpha": fixedTenant(4, 0.7)}, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tn2, err := s2.Tenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, want, tn2.Snapshot())
}

// TestCoalescedLoopUnderRace hammers one coalescing tenant from many
// goroutines (the race detector guards the single-writer claim) and
// checks read-your-writes on every ack: the published snapshot a client
// reads after its own successful submit/revoke must reflect it, and
// epochs observed per goroutine never regress.
func TestCoalescedLoopUnderRace(t *testing.T) {
	tc := fixedTenant(4, 0.7)
	tc.Coalesce = 16
	s, err := New(Config{Tenants: map[string]TenantConfig{"alpha": tc}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tn, err := s.Tenant("alpha")
	if err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var last uint64
			for i := 0; i < rounds; i++ {
				id := fmt.Sprintf("w%d-%03d", w, i)
				res, err := tn.Submit(context.Background(), submitReq(id, 0.3+0.01*float64(w)))
				if err != nil {
					t.Errorf("submit %s: %v", id, err)
					return
				}
				v := tn.planView()
				if v.Epoch < res.Epoch {
					t.Errorf("%s: snapshot epoch %d older than ack epoch %d", id, v.Epoch, res.Epoch)
				}
				if _, ok := v.Request(id); !ok {
					t.Errorf("read-your-writes violated: %s missing after submit ack", id)
				}
				if res.Epoch <= last {
					t.Errorf("%s: epoch did not advance: %d after %d", id, res.Epoch, last)
				}
				last = res.Epoch
				if i%2 == 1 {
					epoch, err := tn.Revoke(context.Background(), id)
					if err != nil {
						t.Errorf("revoke %s: %v", id, err)
						return
					}
					if _, ok := tn.planView().Request(id); ok {
						t.Errorf("read-your-writes violated: %s still visible after revoke ack", id)
					}
					if epoch <= last {
						t.Errorf("%s: revoke epoch did not advance: %d after %d", id, epoch, last)
					}
					last = epoch
				}
			}
		}(w)
	}
	wg.Wait()

	snap := tn.Snapshot()
	if want := uint64(workers * rounds * 3 / 2); snap.Epoch != want {
		t.Fatalf("final epoch %d, want %d (one per applied mutation)", snap.Epoch, want)
	}
	if got := len(snap.Requests); got != workers*rounds/2 {
		t.Fatalf("open requests %d, want %d", got, workers*rounds/2)
	}
	if b, o := tn.met.batches.Value(), tn.met.batchedOps.Value(); o != int64(workers*rounds*3/2) || b > o {
		t.Fatalf("coalescing counters: batches %d ops %d, want ops = %d", b, o, workers*rounds*3/2)
	}
}
