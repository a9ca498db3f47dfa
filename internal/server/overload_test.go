package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"stratrec/internal/strategy"
)

// postSubmit fires one raw submit so tests can inspect status code and
// headers (call() hides both behind JSON decoding).
func postSubmit(t *testing.T, client *http.Client, base, tenant string, sr SubmitRequest) *http.Response {
	t.Helper()
	data, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/v1/tenants/"+tenant+"/requests", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func submitReqN(id string, q float64) strategy.Request {
	return strategy.Request{ID: id, Params: strategy.Params{Quality: q, Cost: 0.9, Latency: 0.9}, K: 1}
}

// gatedTenantConfig returns a tenant whose every live apply blocks on the
// returned gate — the deterministic way to freeze the loop and fill the
// inbox. Closing the gate releases all applies at once.
func gatedTenantConfig(buf, coalesce int) (TenantConfig, chan struct{}, *sync.WaitGroup) {
	cfg := fixedTenant(4, 1)
	cfg.OpBuffer = buf
	cfg.Coalesce = coalesce
	gate := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	var once sync.Once
	cfg.Faults = &Faults{ApplyDelay: func(kind, id string) time.Duration {
		once.Do(entered.Done) // signals the loop is frozen mid-apply
		<-gate
		return 0
	}}
	return cfg, gate, &entered
}

// TestAdmissionQueueFullSheds: with the loop frozen mid-apply and the
// inbox full, the next mutation is shed immediately with an OverloadError
// instead of blocking — and the queued mutations still ack once the loop
// resumes.
func TestAdmissionQueueFullSheds(t *testing.T) {
	cfg, gate, entered := gatedTenantConfig(1, 1)
	tn, err := newTenant("x", cfg, durability{}, nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { tn.close() }()

	results := make(chan error, 2)
	go func() { _, err := tn.Submit(context.Background(), submitReqN("a", 0.52)); results <- err }()
	entered.Wait() // loop is frozen applying "a"
	go func() { _, err := tn.Submit(context.Background(), submitReqN("b", 0.52)); results <- err }()
	for len(tn.ops) == 0 {
		time.Sleep(time.Millisecond) // "b" is queued, inbox now full
	}

	_, err = tn.Submit(context.Background(), submitReqN("c", 0.52))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit into full inbox: %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("shed error %v lacks a usable RetryAfter", err)
	}
	if got := tn.met.shedsQueueFull.Value(); got != 1 {
		t.Fatalf("sheds_queue_full = %d, want 1", got)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued submit failed after resume: %v", err)
		}
	}
	snap := tn.Snapshot()
	if len(snap.Requests) != 2 {
		t.Fatalf("recovered %d open requests, want 2 (the shed one must be absent)", len(snap.Requests))
	}
}

// TestAdmissionDeadlineProjection: a mutation whose deadline the
// projected queue wait already overshoots is shed up front, without ever
// reaching the loop.
func TestAdmissionDeadlineProjection(t *testing.T) {
	cfg := fixedTenant(4, 1)
	tn, err := newTenant("x", cfg, durability{}, nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tn.close()

	// Prime the latency estimate: one batch takes ~100ms, so any
	// deadline under that is unmeetable even with an empty queue.
	tn.batchLatency.observe(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = tn.Submit(ctx, submitReqN("d", 0.52))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit with unmeetable deadline: %v, want ErrOverloaded", err)
	}
	if got := tn.met.shedsDeadline.Value(); got != 1 {
		t.Fatalf("sheds_deadline = %d, want 1", got)
	}
	if got := len(tn.Snapshot().Requests); got != 0 {
		t.Fatalf("shed submit left %d requests behind", got)
	}
}

// TestLoopShedsExpiredBeforeApply: an op whose deadline expires while it
// is queued is shed by the loop immediately before apply — it never
// mutates state, never reaches the WAL.
func TestLoopShedsExpiredBeforeApply(t *testing.T) {
	cfg, gate, entered := gatedTenantConfig(4, 1)
	tn, err := newTenant("x", cfg, durability{}, nil, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tn.close()

	first := make(chan error, 1)
	go func() { _, err := tn.Submit(context.Background(), submitReqN("a", 0.52)); first <- err }()
	entered.Wait() // loop frozen applying "a"

	// "b" queues with a deadline that will expire while it waits.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	second := make(chan error, 1)
	go func() { _, err := tn.Submit(ctx, submitReqN("b", 0.52)); second <- err }()
	for len(tn.ops) == 0 {
		time.Sleep(time.Millisecond)
	}
	<-ctx.Done() // deadline passes while "b" is queued
	close(gate)

	if err := <-first; err != nil {
		t.Fatalf("first submit: %v", err)
	}
	err = <-second
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expired-in-queue submit: %v, want ErrOverloaded", err)
	}
	snap := tn.Snapshot()
	if len(snap.Requests) != 1 || snap.Epoch != 1 {
		t.Fatalf("state after expired shed: %d requests, epoch %d; want 1, 1", len(snap.Requests), snap.Epoch)
	}
}

// TestShutdownUnderLoadAcksOrShedsEverything is the graceful-shutdown
// contract: SIGTERM (server Close) with a full coalescing queue must give
// every in-flight mutation a definitive answer — 2xx ack or shed — and a
// restart must recover exactly the acked set, nothing more, nothing less.
func TestShutdownUnderLoadAcksOrShedsEverything(t *testing.T) {
	dir := t.TempDir()
	cfg, gate, entered := gatedTenantConfig(8, 4)
	s, err := New(Config{
		Tenants: map[string]TenantConfig{"x": cfg},
		DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := s.Tenant("x")

	const writers = 16
	type outcome struct {
		id  string
		err error
	}
	outcomes := make(chan outcome, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", w)
			_, err := tn.Submit(context.Background(), submitReqN(id, 0.52))
			outcomes <- outcome{id: id, err: err}
		}(w)
	}
	entered.Wait() // loop frozen, writers piling into the inbox
	for len(tn.ops) < 4 {
		time.Sleep(time.Millisecond)
	}
	// SIGTERM: release the loop and close the server concurrently, the
	// racy shape a real drain has.
	close(gate)
	s.Close()
	wg.Wait()
	close(outcomes)

	acked := map[string]bool{}
	for o := range outcomes {
		switch {
		case o.err == nil:
			acked[o.id] = true
		case errors.Is(o.err, ErrTenantClosed), errors.Is(o.err, ErrOverloaded):
			// definitive shed: must be absent after restart
		default:
			t.Fatalf("submit %s: unexpected outcome %v", o.id, o.err)
		}
	}

	// Restart from disk: the recovered set is exactly the acked set.
	cfg2 := fixedTenant(4, 1)
	s2, err := New(Config{
		Tenants: map[string]TenantConfig{"x": cfg2},
		DataDir: dir,
	})
	if err != nil {
		t.Fatalf("restart after shutdown under load: %v", err)
	}
	defer s2.Close()
	tn2, _ := s2.Tenant("x")
	snap := tn2.Snapshot()
	if len(snap.Requests) != len(acked) {
		t.Fatalf("recovered %d requests, acked %d", len(snap.Requests), len(acked))
	}
	for _, rs := range snap.Requests {
		if !acked[rs.ID] {
			t.Fatalf("recovered %s was never acked", rs.ID)
		}
	}
	if snap.Epoch != uint64(len(acked)) {
		t.Fatalf("recovered epoch %d != %d acked mutations", snap.Epoch, len(acked))
	}
}

// TestRetryAfterMillisecondPrecision is the regression test for the
// Retry-After granularity bug: shed errors used to round the projected
// wait up to whole seconds at construction time, so the envelope's
// retry_after_ms was always a multiple of 1000 even when the projected
// wait was 10ms — clients backed off up to 200x longer than the server
// actually estimated. The precise duration must now survive into
// retry_after_ms, with only the Retry-After *header* rounded up to the
// whole seconds HTTP speaks.
func TestRetryAfterMillisecondPrecision(t *testing.T) {
	cfg, gate, entered := gatedTenantConfig(1, 1)
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	s, hs := newTestServer(t, Config{Tenants: map[string]TenantConfig{"x": cfg}})
	t.Cleanup(openGate) // registered after newTestServer's: runs first, unfreezes the loop for Close

	tn, _ := s.Tenant("x")
	done := make(chan struct{}, 2)
	go func() { tn.Submit(context.Background(), submitReqN("a", 0.52)); done <- struct{}{} }()
	entered.Wait() // loop frozen applying "a"
	go func() { tn.Submit(context.Background(), submitReqN("b", 0.52)); done <- struct{}{} }()
	for len(tn.ops) == 0 {
		time.Sleep(time.Millisecond)
	}
	// Pin the batch-latency EWMA: with cap(ops)=1 and coalesce=1 the
	// projected drain wait on a queue-full shed is (1/1+1) * 5ms = 10ms.
	tn.batchLatency.nanos.Store(int64(5 * time.Millisecond))

	resp := postSubmit(t, hs.Client(), hs.URL, "x", SubmitRequest{ID: "c", Quality: 0.52, Cost: 0.9, Latency: 0.9, K: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed submit = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After header = %q, want \"1\" (sub-second wait rounds up to the header's whole-second floor)", got)
	}
	// Re-issue to read the envelope (postSubmit discards the body).
	data, _ := json.Marshal(SubmitRequest{ID: "c", Quality: 0.52, Cost: 0.9, Latency: 0.9, K: 1})
	resp2, err := hs.Client().Post(hs.URL+"/v1/tenants/x/requests", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var envelope ErrorResponse
	if err := json.NewDecoder(resp2.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != CodeOverloaded {
		t.Fatalf("envelope code = %q, want %q", envelope.Error.Code, CodeOverloaded)
	}
	if ms := envelope.Error.RetryAfterMs; ms != 10 {
		t.Fatalf("retry_after_ms = %d, want the precise 10ms projected wait (whole-second rounding destroyed the hint)", ms)
	}

	openGate()
	<-done
	<-done
}

// TestRetryAfterEnvelopeFloor: a projected wait under a millisecond still
// yields a present, parseable retry_after_ms (floor 1), so every shed's
// hint stays machine-readable.
func TestRetryAfterEnvelopeFloor(t *testing.T) {
	_, d := errorDetail(&OverloadError{RetryAfter: 100 * time.Microsecond, Reason: "test"})
	if d.RetryAfterMs != 1 {
		t.Fatalf("retry_after_ms = %d for a 100µs wait, want floor 1", d.RetryAfterMs)
	}
}

// TestHealthzPerTenant is the regression test for the flat-healthz bug: a
// tenant that tripped the WAL read-only breaker must surface as
// "read-only" with the aggregate "degraded" (still 200 — the other tenant
// serves), and the endpoint goes 503 only when every tenant is out.
func TestHealthzPerTenant(t *testing.T) {
	dir := t.TempDir()
	badCfg := fixedTenant(4, 1)
	syncs := 0
	badCfg.Faults = &Faults{WALSync: func() error {
		syncs++
		if syncs >= 2 {
			return errors.New("injected fsync failure")
		}
		return nil
	}}
	s, hs := newTestServer(t, Config{
		Tenants: map[string]TenantConfig{
			"good": fixedTenant(4, 1),
			"bad":  badCfg,
		},
		DataDir: dir,
	})
	c := hs.Client()

	var health HealthResponse
	if code := call(t, c, "GET", hs.URL+"/healthz", nil, &health); code != 200 || health.Status != HealthOK {
		t.Fatalf("healthz before fault = %d %+v", code, health)
	}

	bad, _ := s.Tenant("bad")
	if _, err := bad.Submit(context.Background(), submitReqN("b1", 0.52)); err != nil {
		t.Fatal(err) // sync 1 passes
	}
	_, err := bad.Submit(context.Background(), submitReqN("b2", 0.52))
	if !errors.Is(err, ErrWALBroken) {
		t.Fatalf("second submit: %v, want ErrWALBroken", err)
	}

	if code := call(t, c, "GET", hs.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz with one broken tenant = %d, want 200 (other tenant still serves)", code)
	}
	if health.Status != HealthDegraded ||
		health.Tenants["bad"].Status != HealthReadOnly ||
		health.Tenants["good"].Status != HealthOK {
		t.Fatalf("healthz = %+v, want degraded with bad=read-only good=ok", health)
	}

	// The broken tenant's 503s carry Retry-After.
	resp := postSubmit(t, c, hs.URL, "bad", SubmitRequest{ID: "b3", Quality: 0.52, Cost: 0.9, Latency: 0.9, K: 1})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("mutation on broken tenant = %d Retry-After=%q, want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Reads still serve the last published snapshot.
	var plan PlanResponse
	if code := call(t, c, "GET", hs.URL+"/v1/tenants/bad/plan", nil, &plan); code != 200 || len(plan.Requests) != 1 {
		t.Fatalf("read on broken tenant = %d with %d requests, want 200 with 1", code, len(plan.Requests))
	}
}

// TestHealthzUnavailableWhenAllBroken: single tenant, breaker tripped →
// the aggregate is the only non-200 healthz case.
func TestHealthzUnavailableWhenAllBroken(t *testing.T) {
	dir := t.TempDir()
	cfg := fixedTenant(4, 1)
	cfg.Faults = &Faults{WALSync: func() error { return errors.New("injected fsync failure") }}
	s, hs := newTestServer(t, Config{
		Tenants: map[string]TenantConfig{"only": cfg},
		DataDir: dir,
	})
	tn, _ := s.Tenant("only")
	if _, err := tn.Submit(context.Background(), submitReqN("a", 0.52)); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("submit: %v, want ErrWALBroken", err)
	}
	var health HealthResponse
	if code := call(t, hs.Client(), "GET", hs.URL+"/healthz", nil, &health); code != http.StatusServiceUnavailable || health.Status != "unavailable" {
		t.Fatalf("healthz = %d %+v, want 503 unavailable", code, health)
	}
}

// TestClosedTenant503RetryAfter: requests racing a shutdown get 503 +
// Retry-After (satellite: ErrTenantClosed carries a retry hint too).
func TestClosedTenant503RetryAfter(t *testing.T) {
	s, err := New(Config{Tenants: map[string]TenantConfig{"x": fixedTenant(4, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	s.Close() // tenant loops gone, HTTP layer still up

	resp := postSubmit(t, hs.Client(), hs.URL, "x", SubmitRequest{ID: "late", Quality: 0.52, Cost: 0.9, Latency: 0.9, K: 1})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("post-close mutation = %d Retry-After=%q, want 503 Retry-After=1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestQueryPoolShedsWithRetryAfter saturates a 1-worker/1-queued pool
// with slow solves: overflow queries get 429 + Retry-After while plan
// reads keep flowing untouched.
func TestQueryPoolShedsWithRetryAfter(t *testing.T) {
	cfg := fixedTenant(2, 0.3) // tight availability: some requests displaced
	cfg.Faults = &Faults{SolveDelay: 100 * time.Millisecond}
	s, hs := newTestServer(t, Config{
		Tenants:      map[string]TenantConfig{"x": cfg},
		ADPaRWorkers: 1,
		ADPaRQueue:   1,
	})
	tn, _ := s.Tenant("x")
	for i := 0; i < 4; i++ {
		if _, err := tn.Submit(context.Background(), submitReqN(fmt.Sprintf("q%d", i), 0.6)); err != nil {
			t.Fatal(err)
		}
	}
	snap := tn.Snapshot()
	if len(snap.Plan.Displaced) == 0 {
		t.Fatal("no displaced request to query")
	}
	target := snap.Plan.Displaced[0]

	const queries = 4
	codes := make(chan int, queries)
	retryAfter := make(chan string, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := hs.Client().Get(hs.URL + "/v1/tenants/x/requests/" + target + "/alternative")
			if err != nil {
				codes <- -1
				retryAfter <- ""
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
			retryAfter <- resp.Header.Get("Retry-After")
		}()
	}
	wg.Wait()
	close(codes)
	close(retryAfter)
	var ok, shed int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if ra := <-retryAfter; ra == "" {
				t.Fatal("429 without Retry-After")
			}
			continue
		default:
			t.Fatalf("alternative = %d", code)
		}
		<-retryAfter
	}
	// 1 worker + 1 queue slot: exactly 2 can succeed, the rest shed.
	if ok == 0 || shed == 0 {
		t.Fatalf("pool outcome ok=%d shed=%d, want both > 0", ok, shed)
	}
	if got := s.pool.sheds.Load(); got != int64(shed) {
		t.Fatalf("pool sheds metric %d != observed %d", got, shed)
	}

	// Plan reads never touch the pool: issue one while holding every
	// slot and queue position, and it must come back immediately.
	s.pool.slots <- struct{}{}
	s.pool.waiting.Store(int64(s.pool.queueCap))
	start := time.Now()
	var plan PlanResponse
	if code := call(t, hs.Client(), "GET", hs.URL+"/v1/tenants/x/plan", nil, &plan); code != 200 {
		t.Fatalf("plan read = %d", code)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("plan read took %v, must not queue behind the solve pool", elapsed)
	}
	s.pool.waiting.Store(0)
	<-s.pool.slots
}
