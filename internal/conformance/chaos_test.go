package conformance

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stratrec/internal/server"
	"stratrec/internal/strategy"
	"stratrec/internal/stream"
)

// chaosServer builds a small two-tenant server from trace specs. The
// returned specs let tests derive valid requests for the catalogs.
func chaosServer(t *testing.T, onApply func(server.AppliedOp)) (*server.Server, []TenantSpec) {
	t.Helper()
	tr, err := Generate(GenConfig{Seed: 21, Events: 1, Tenants: 2, Strategies: 16})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Tenants: map[string]server.TenantConfig{}}
	for _, spec := range tr.Tenants {
		m, err := newTenantModel(spec)
		if err != nil {
			t.Fatal(err)
		}
		tc := m.tenantConfig()
		tc.OnApply = onApply
		cfg.Tenants[spec.Name] = tc
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, tr.Tenants
}

// TestChaosDrainUnderLoad closes the HTTP layer and the tenant loops while
// writers are mid-flight. Every response must be a well-formed outcome —
// success, a domain error, a 503, or a transport error from the teardown —
// and nothing may deadlock or race.
func TestChaosDrainUnderLoad(t *testing.T) {
	s, specs := chaosServer(t, nil)
	hs := httptest.NewServer(s.Handler())
	client := hs.Client()

	const writers = 8
	var wg sync.WaitGroup
	var badStatus atomic.Int64
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			tenant := specs[w%len(specs)].Name
			for i := 0; ; i++ {
				body, _ := json.Marshal(server.SubmitRequest{
					ID: fmt.Sprintf("drain-%d-%d", w, i), Quality: 0.3, Cost: 0.9, Latency: 0.9, K: 1,
				})
				resp, err := client.Post(hs.URL+"/v1/tenants/"+tenant+"/requests",
					"application/json", strings.NewReader(string(body)))
				if err != nil {
					return // transport error: the listener is gone, expected
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusBadRequest, http.StatusConflict,
					http.StatusNotFound, http.StatusServiceUnavailable:
				default:
					badStatus.Add(1)
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					return
				}
			}
		}(w)
	}
	close(start)
	// Let the writers make progress, then tear everything down under them.
	for _, spec := range specs {
		tn, err := s.Tenant(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		for len(tn.Snapshot().Requests) == 0 {
			runtime.Gosched()
		}
	}
	hs.CloseClientConnections()
	hs.Close()
	s.Close()
	wg.Wait()
	if n := badStatus.Load(); n > 0 {
		t.Fatalf("%d responses with unexpected status during drain", n)
	}

	// After the drain, mutations fail with ErrTenantClosed, not hangs.
	tn, err := s.Tenant(specs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Submit(context.Background(), strategy.Request{ID: "late", Params: strategy.Params{Quality: 0.1, Cost: 0.9, Latency: 0.9}, K: 1}); !errors.Is(err, server.ErrTenantClosed) {
		t.Fatalf("post-drain submit: %v, want ErrTenantClosed", err)
	}
}

// TestChaosRevokeStormConcurrent fires many goroutines revoking the same
// IDs: exactly one revoke per ID may succeed, everyone else sees 404, and
// the pool ends empty with a consistent final snapshot.
func TestChaosRevokeStormConcurrent(t *testing.T) {
	// The step callback deliberately uses a plain (non-atomic) counter:
	// OnApply is documented to run only on the single-writer loop
	// goroutine, and the race detector enforces that claim here.
	applied := 0
	s, specs := chaosServer(t, func(server.AppliedOp) { applied++ })
	defer s.Close()
	tn, err := s.Tenant(specs[0].Name)
	if err != nil {
		t.Fatal(err)
	}

	const ids = 60
	for i := 0; i < ids; i++ {
		if _, err := tn.Submit(context.Background(), strategy.Request{
			ID:     fmt.Sprintf("storm-%d", i),
			Params: strategy.Params{Quality: 0.2, Cost: 0.95, Latency: 0.95},
			K:      1,
		}); err != nil {
			t.Fatal(err)
		}
	}

	const revokers = 6
	var ok atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < revokers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				_, err := tn.Revoke(context.Background(), fmt.Sprintf("storm-%d", i))
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, stream.ErrUnknownID):
				default:
					t.Errorf("revoke storm: unexpected error %v", err)
				}
			}
		}()
	}
	wg.Wait()

	if got := ok.Load(); got != ids {
		t.Fatalf("%d successful revokes, want exactly %d", got, ids)
	}
	snap := tn.Snapshot()
	if len(snap.Requests) != 0 || len(snap.Plan.Serving) != 0 {
		t.Fatalf("pool not empty after storm: %d open, %d serving", len(snap.Requests), len(snap.Plan.Serving))
	}
	if applied != ids+revokers*ids {
		t.Fatalf("step callback saw %d ops, want %d", applied, ids+revokers*ids)
	}
}

// TestChaosSnapshotReadsRaceMutations hammers the lock-free read path
// (snapshots and warm-index alternatives) while a writer mutates. Under
// -race this proves the publication protocol; the assertions prove every
// observed snapshot is internally consistent and epochs never go
// backwards.
func TestChaosSnapshotReadsRaceMutations(t *testing.T) {
	s, specs := chaosServer(t, nil)
	defer s.Close()
	tn, err := s.Tenant(specs[0].Name)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	const readers = 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := tn.Snapshot()
				if snap.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", snap.Epoch, lastEpoch)
					return
				}
				lastEpoch = snap.Epoch
				if len(snap.Plan.Serving)+len(snap.Plan.Displaced) != len(snap.Requests) {
					t.Errorf("inconsistent snapshot: %d serving + %d displaced != %d open",
						len(snap.Plan.Serving), len(snap.Plan.Displaced), len(snap.Requests))
					return
				}
				var wf float64
				for _, rs := range snap.Requests {
					if rs.Serving {
						wf += rs.Workforce
					}
				}
				if math.Abs(wf-snap.Plan.Workforce) > 1e-9 {
					t.Errorf("snapshot workforce %v != sum over serving %v", snap.Plan.Workforce, wf)
					return
				}
				// Alternative queries ride the same immutable snapshot +
				// warm index; errors must be the documented domain ones —
				// including a pool shed when concurrent readers overrun
				// the (GOMAXPROCS-sized) query pool.
				for _, rs := range snap.Requests {
					if !rs.Serving {
						if _, _, err := tn.Alternative(context.Background(), rs.ID); err != nil &&
							!errors.Is(err, stream.ErrUnknownID) && !errors.Is(err, stream.ErrServed) &&
							!errors.Is(err, server.ErrOverloaded) {
							t.Errorf("alternative under race: %v", err)
							return
						}
						break
					}
				}
			}
		}()
	}

	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("race-%d", i)
		if _, err := tn.Submit(context.Background(), strategy.Request{
			ID: id, Params: strategy.Params{Quality: 0.4, Cost: 0.5, Latency: 0.5}, K: 2,
		}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := tn.Revoke(context.Background(), id); err != nil {
				t.Fatal(err)
			}
		}
		if i%17 == 0 {
			if _, err := tn.SetAvailability(context.Background(), float64(i%10+1)/10); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
}
