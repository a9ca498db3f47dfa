package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"stratrec/internal/batch"
	"stratrec/internal/strategy"
	"stratrec/internal/stream"
	"stratrec/internal/wal"
)

// snapshotsEqual diffs two tenant snapshots field by field, the same
// observables the HTTP plan endpoint serves plus the submission sequence
// numbers recovery must preserve. The plan totals must match bit for bit:
// a recovery that repairs the plan once must land on the float sums the
// original run's per-batch repairs produced.
func snapshotsEqual(t *testing.T, want, got *stream.Snapshot) {
	t.Helper()
	if got.Epoch != want.Epoch {
		t.Errorf("epoch: want %d, got %d", want.Epoch, got.Epoch)
	}
	if got.Availability != want.Availability {
		t.Errorf("availability: want %v, got %v", want.Availability, got.Availability)
	}
	if len(got.Requests) != len(want.Requests) {
		t.Fatalf("open requests: want %d, got %d", len(want.Requests), len(got.Requests))
	}
	for i, w := range want.Requests {
		g := got.Requests[i]
		switch {
		case g.ID != w.ID:
			t.Errorf("request %d: id want %s, got %s", i, w.ID, g.ID)
		case g.Seq != w.Seq:
			t.Errorf("request %s: sub seq want %d, got %d", w.ID, w.Seq, g.Seq)
		case g.Serving != w.Serving:
			t.Errorf("request %s: serving want %v, got %v", w.ID, w.Serving, g.Serving)
		case g.Feasible != w.Feasible:
			t.Errorf("request %s: feasible want %v, got %v", w.ID, w.Feasible, g.Feasible)
		case g.Request != w.Request:
			t.Errorf("request %s: params want %+v, got %+v", w.ID, w.Request, g.Request)
		}
		if w.Workforce != g.Workforce && !(math.IsInf(w.Workforce, 1) && math.IsInf(g.Workforce, 1)) {
			t.Errorf("request %s: workforce want %v, got %v", w.ID, w.Workforce, g.Workforce)
		}
	}
	if len(got.Plan.Serving) != len(want.Plan.Serving) {
		t.Errorf("serving: want %v, got %v", want.Plan.Serving, got.Plan.Serving)
	}
	if math.Float64bits(got.Plan.Objective) != math.Float64bits(want.Plan.Objective) {
		t.Errorf("plan objective: want %v, got %v", want.Plan.Objective, got.Plan.Objective)
	}
	if math.Float64bits(got.Plan.Workforce) != math.Float64bits(want.Plan.Workforce) {
		t.Errorf("plan workforce: want %v, got %v", want.Plan.Workforce, got.Plan.Workforce)
	}
}

// mutationMix is a deterministic submit/revoke/drift sequence of n ops;
// every revoke targets a request submitted, and still open, earlier in
// the sequence.
func mutationMix(n int, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	var open []string
	next := 0
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case len(open) > 0 && (rng.Float64() < 0.45 || len(open) > 40):
			j := rng.Intn(len(open))
			ops = append(ops, op{kind: opRevoke, id: open[j]})
			open = append(open[:j], open[j+1:]...)
		case rng.Float64() < 0.06:
			ops = append(ops, op{kind: opAvailability, w: 0.3 + 0.6*rng.Float64()})
		default:
			id := fmt.Sprintf("r%05d", next)
			next++
			ops = append(ops, op{kind: opSubmit, req: strategy.Request{
				ID:     id,
				Params: strategy.Params{Quality: 0.25 + 0.6*rng.Float64(), Cost: 0.9, Latency: 0.9},
				K:      1,
			}})
			open = append(open, id)
		}
	}
	return ops
}

// driveMutations applies mutationMix(n, seed) one op per enqueue — the
// single-op wire shape.
func driveMutations(t testing.TB, tn *Tenant, n int, seed int64) {
	t.Helper()
	driveBatches(t, tn, n, seed, 1)
}

// driveBatches applies mutationMix(n, seed) through the tenant's
// admission path, size ops per enqueue, failing on any op not
// acknowledged.
func driveBatches(t testing.TB, tn *Tenant, n int, seed int64, size int) {
	t.Helper()
	sendBodies(t, tn, mutationMix(n, seed), size)
}

// sendBodies applies ops through the tenant's admission path, size ops
// per enqueue, failing on any op not acknowledged.
func sendBodies(t testing.TB, tn *Tenant, ops []op, size int) {
	t.Helper()
	for lo := 0; lo < len(ops); lo += size {
		body := ops[lo:min(lo+size, len(ops))]
		results, err := tn.enqueue(context.Background(), body)
		if err != nil {
			t.Fatalf("body at op %d refused: %v", lo, err)
		}
		for i, res := range results {
			if res.err != nil {
				t.Fatalf("%s %s: %v", body[i].kind, appliedID(body[i]), res.err)
			}
		}
	}
}

func TestDurableRestartRestoresState(t *testing.T) {
	dir := t.TempDir()
	payoff := synthTenant(7, 24, 0.6)
	payoff.Objective = batch.Payoff
	cfg := Config{
		Tenants: map[string]TenantConfig{"alpha": fixedTenant(6, 0.7), "beta": synthTenant(5, 24, 0.6), "gamma": payoff},
		DataDir: dir,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*stream.Snapshot{}
	for _, name := range s1.TenantNames() {
		tn, _ := s1.Tenant(name)
		driveMutations(t, tn, 300, int64(len(name)))
		if name == "gamma" {
			// A payoff plan sums request costs, which mutationMix holds
			// constant: varied costs make the recovered objective a float
			// sum of distinct values.
			priced := make([]op, 40)
			for i := range priced {
				priced[i] = op{kind: opSubmit, req: strategy.Request{
					ID:     fmt.Sprintf("priced%02d", i),
					Params: strategy.Params{Quality: 0.3 + 0.01*float64(i), Cost: 0.5 + 0.0123*float64(i), Latency: 0.9},
					K:      1,
				}}
			}
			sendBodies(t, tn, priced, 8)
		}
		want[name] = tn.Snapshot()
	}
	s1.Close()

	// Restart from disk: no checkpoint was ever taken, so this is a pure
	// tail replay from seq 1.
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

	// The recovered server keeps serving: a fresh submission gets a fresh
	// submission number, above everything restored.
	tn, _ := s2.Tenant("alpha")
	if _, err := tn.Submit(context.Background(), strategy.Request{ID: "fresh", Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1}); err != nil {
		t.Fatal(err)
	}
	rs, ok := tn.planView().Request("fresh")
	if !ok {
		t.Fatal("fresh request missing after recovery")
	}
	for _, other := range tn.Snapshot().Requests {
		if other.ID != "fresh" && other.Seq >= rs.Seq {
			t.Fatalf("fresh submission seq %d does not exceed restored seq %d (%s)", rs.Seq, other.Seq, other.ID)
		}
	}
}

func TestCheckpointEndpointAndRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tenants: map[string]TenantConfig{"alpha": fixedTenant(6, 0.7)},
		DataDir: dir,
	}
	s1, hs := newTestServer(t, cfg)
	tn, _ := s1.Tenant("alpha")
	driveMutations(t, tn, 200, 11)

	var resp CheckpointResponse
	if code := call(t, hs.Client(), http.MethodPost, hs.URL+"/admin/checkpoint", nil, &resp); code != http.StatusOK {
		t.Fatalf("checkpoint: status %d", code)
	}
	info := resp.Tenants["alpha"]
	if info.LastSeq == 0 || info.Requests != tn.mgr.Open() {
		t.Fatalf("checkpoint info %+v, open %d", info, tn.mgr.Open())
	}
	// Post-checkpoint traffic becomes the replay tail.
	driveMutations(t, tn, 75, 13)
	want := tn.Snapshot()
	hs.Close()
	s1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tn2, _ := s2.Tenant("alpha")
	snapshotsEqual(t, want, tn2.Snapshot())
}

func TestCheckpointWithoutDataDir(t *testing.T) {
	s, hs := newTestServer(t, Config{Tenants: map[string]TenantConfig{"alpha": fixedTenant(4, 0.7)}})
	defer s.Close()
	var errResp ErrorResponse
	if code := call(t, hs.Client(), http.MethodPost, hs.URL+"/admin/checkpoint", nil, &errResp); code != http.StatusConflict {
		t.Fatalf("checkpoint without durability: status %d (%+v)", code, errResp.Error)
	}
	if errResp.Error.Code != CodeNoDurability {
		t.Fatalf("checkpoint without durability: code %+v", errResp.Error)
	}
}

func TestAutoCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tenants:         map[string]TenantConfig{"alpha": fixedTenant(6, 0.7)},
		DataDir:         dir,
		CheckpointEvery: 20,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := s1.Tenant("alpha")
	driveMutations(t, tn, 130, 17)
	want := tn.Snapshot()
	s1.Close()

	// Auto-checkpointing must have truncated: one live segment behind one
	// checkpoint, holding at most a checkpoint budget of tail records.
	scanned, err := wal.Scan(filepath.Join(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if scanned.Segments != 1 || scanned.Checkpoint == nil {
		t.Fatalf("auto-checkpoint left %d segments, checkpoint %v", scanned.Segments, scanned.Checkpoint)
	}
	if records := len(scanned.Tail); records > 2*cfg.CheckpointEvery {
		t.Fatalf("auto-checkpoint left %d records on disk (budget %d)", records, cfg.CheckpointEvery)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tn2, _ := s2.Tenant("alpha")
	snapshotsEqual(t, want, tn2.Snapshot())
}

func TestRecoveryAfterTornTail(t *testing.T) {
	// A crash of this build mid-append leaves a prefix of a v3 binary
	// frame: the next record, cut short. The garbage fragment covers a
	// torn write of any other shape.
	frame, err := wal.EncodeRecordBinary(wal.Record{Seq: 121, Epoch: 121, Kind: wal.KindRevoke, ID: "r00000"})
	if err != nil {
		t.Fatal(err)
	}
	for name, torn := range map[string][]byte{
		"cut v3 frame": frame[:len(frame)-5],
		"garbage":      []byte(`00bad000 {"v":1,"seq":`),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{
				Tenants: map[string]TenantConfig{"alpha": fixedTenant(6, 0.7)},
				DataDir: dir,
			}
			s1, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tn, _ := s1.Tenant("alpha")
			driveMutations(t, tn, 120, 19)
			want := tn.Snapshot()
			s1.Close()

			// Simulate a crash mid-append: a partial record at the tail of
			// the segment. Recovery must drop exactly it.
			entries, err := os.ReadDir(filepath.Join(dir, "alpha"))
			if err != nil {
				t.Fatal(err)
			}
			var seg string
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".log") {
					seg = filepath.Join(dir, "alpha", e.Name())
				}
			}
			f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(torn); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			tn2, _ := s2.Tenant("alpha")
			snapshotsEqual(t, want, tn2.Snapshot())
			if got := tn2.met.tornBytes.Value(); got != int64(len(torn)) {
				t.Fatalf("torn_bytes_truncated = %d, injected %d", got, len(torn))
			}
		})
	}
}

// TestDurableRevokeStormUnderRace is the satellite's -race storm: many
// goroutines churn submits and revokes through the event loop with the
// WAL on, epochs stay monotonic per observer, invariants hold, and the
// WAL replays to exactly the final state.
func TestDurableRevokeStormUnderRace(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tenants: map[string]TenantConfig{"alpha": fixedTenant(6, 0.7)},
		DataDir: dir,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := s1.Tenant("alpha")

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var last uint64
			for i := 0; i < 60; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				res, err := tn.Submit(context.Background(), strategy.Request{ID: id, Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1})
				if err != nil {
					t.Errorf("submit %s: %v", id, err)
					return
				}
				if res.Epoch < last {
					t.Errorf("epoch regressed: %d -> %d", last, res.Epoch)
				}
				last = res.Epoch
				if i%3 != 0 { // keep every third request open
					epoch, err := tn.Revoke(context.Background(), id)
					if err != nil {
						t.Errorf("revoke %s: %v", id, err)
						return
					}
					if epoch < last {
						t.Errorf("epoch regressed: %d -> %d", last, epoch)
					}
					last = epoch
				}
			}
		}(w)
	}
	wg.Wait()
	snap := tn.Snapshot()
	if got := len(snap.Plan.Serving) + len(snap.Plan.Displaced); got != len(snap.Requests) {
		t.Fatalf("serving+displaced = %d, open = %d", got, len(snap.Requests))
	}
	s1.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tn2, _ := s2.Tenant("alpha")
	snapshotsEqual(t, snap, tn2.Snapshot())
}

// TestWALFailureGoesReadOnly: after a WAL append failure the tenant must
// (a) never publish the unlogged mutation, (b) reject further writes
// with ErrWALBroken while reads keep working, and (c) recover on restart
// to exactly the logged prefix.
func TestWALFailureGoesReadOnly(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tenants: map[string]TenantConfig{"alpha": fixedTenant(6, 0.7)},
		DataDir: dir,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := s1.Tenant("alpha")
	driveMutations(t, tn, 40, 29)
	want := tn.Snapshot()

	// Sabotage the log out from under the loop: the next commit round's
	// fsync hits a closed file. (The happens-before chain is the op channel:
	// this Close precedes the Submit below in program order, and the loop
	// observes it after receiving the op.)
	tn.wal.Close()

	_, err = tn.Submit(context.Background(), strategy.Request{ID: "unlogged", Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1})
	if err == nil {
		t.Fatal("submit with a dead WAL was acknowledged")
	}
	if _, ok := tn.planView().Request("unlogged"); ok {
		t.Fatal("unlogged mutation is visible in the published snapshot")
	}
	if _, err := tn.Submit(context.Background(), strategy.Request{ID: "after", Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1}); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("write after WAL failure: %v, want ErrWALBroken", err)
	}
	if _, err := tn.Revoke(context.Background(), "whatever"); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("revoke after WAL failure: %v, want ErrWALBroken", err)
	}
	// A checkpoint must also be refused: it would durably persist (and
	// truncate the good log behind) the unlogged mutation the circuit
	// breaker withheld from readers.
	if _, err := tn.Checkpoint(); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("checkpoint after WAL failure: %v, want ErrWALBroken", err)
	}
	// Reads still serve the pre-failure state.
	snapshotsEqual(t, want, tn.Snapshot())
	s1.Close()

	// Restart: recovery rebuilds exactly the logged prefix — the state
	// the last published snapshot showed, nothing more.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tn2, _ := s2.Tenant("alpha")
	snapshotsEqual(t, want, tn2.Snapshot())
}

// TestRecoveryTenThousandEventsUnder2s pins the acceptance bound: a
// 10k-record WAL (no checkpoint: the worst case, a full tail replay)
// recovers in under 2 seconds.
func TestRecoveryTenThousandEventsUnder2s(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery timing test skipped in -short")
	}
	dir := t.TempDir()
	cfg := Config{
		Tenants: map[string]TenantConfig{"alpha": fixedTenant(6, 0.7)},
		DataDir: dir,
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, _ := s1.Tenant("alpha")
	// 64-op bodies keep the write phase to one commit round per body;
	// recovery itself does not depend on how the log was written.
	driveBatches(t, tn, 10000, 23, 64)
	want := tn.Snapshot()
	s1.Close()

	start := time.Now()
	s2, err := New(cfg)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tn2, _ := s2.Tenant("alpha")
	snapshotsEqual(t, want, tn2.Snapshot())
	if took > 2*time.Second {
		t.Fatalf("recovering a 10k-event log took %v (budget 2s)", took)
	}
	t.Logf("recovered 10k-event log in %v", took)
}

// TestOverlongIDRefused: a request ID too long for one WAL frame used to
// be acknowledged and logged, then truncated as a torn tail at restart,
// so an acked request vanished without an error. Both wire shapes now
// refuse it with 400 before anything is applied or logged: a single-op
// body over the shared byte cap fails to decode, and an ID over
// stream.MaxIDLen fails in the manager with ErrIDTooLong, in a batch op
// as in a small single-op body.
func TestOverlongIDRefused(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Tenants: map[string]TenantConfig{"alpha": fixedTenant(6, 0.7)}, DataDir: dir}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	c := hs.Client()
	base := hs.URL + "/v1/tenants/alpha"
	var first SubmitResponse
	if code := call(t, c, http.MethodPost, base+"/requests",
		SubmitRequest{ID: "r1", Quality: 0.3, Cost: 0.9, Latency: 0.9, K: 1}, &first); code != http.StatusOK {
		t.Fatalf("first submit = %d", code)
	}

	// A batch body of exactly MaxBatchBodyBytes whose one op carries the
	// longest ID that fits: its submit record (the ID plus 42 bytes) is
	// over the WAL's 1 MiB frame payload.
	const prefix, suffix = `{"ops":[{"op":"submit","id":"`, `"}]}`
	atCap := prefix + strings.Repeat("b", MaxBatchBodyBytes-len(prefix)-len(suffix)) + suffix
	overMax := strings.Repeat("m", stream.MaxIDLen+1)
	single := func(id string) []byte {
		b, _ := json.Marshal(SubmitRequest{ID: id, Quality: 0.3, Cost: 0.9, Latency: 0.9, K: 1})
		return b
	}
	batch := func(id string) []byte {
		b, _ := json.Marshal(BatchRequest{Ops: []BatchOp{{Op: OpSubmit, ID: id, Quality: 0.3, Cost: 0.9, Latency: 0.9, K: 1}}})
		return b
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
		tooLong    bool // refused with ErrIDTooLong, not by the body cap
	}{
		{"single-op 1 MiB + 6 byte ID", "/requests", single(strings.Repeat("s", 1<<20+6)), false},
		{"batch body at the byte cap", "/ops", []byte(atCap), true},
		{"single-op MaxIDLen+1", "/requests", single(overMax), true},
		{"batch MaxIDLen+1", "/ops", batch(overMax), true},
	} {
		resp, err := c.Post(base+tc.path, "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		status, detail := resp.StatusCode, ErrorDetail{}
		if tc.path == "/ops" && status == http.StatusOK {
			var br BatchResponse
			decodeBody(t, resp, &br)
			if len(br.Results) != 1 {
				t.Fatalf("%s: %d results", tc.name, len(br.Results))
			}
			if status = br.Results[0].Status; br.Results[0].Error != nil {
				detail = *br.Results[0].Error
			}
		} else {
			var er ErrorResponse
			decodeBody(t, resp, &er)
			detail = er.Error
		}
		resp.Body.Close()
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
		if tc.tooLong && (detail.Code != CodeInvalidArgument || !strings.Contains(detail.Message, stream.ErrIDTooLong.Error())) {
			t.Errorf("%s: error %+v, want %s from ErrIDTooLong", tc.name, detail, CodeInvalidArgument)
		}
	}
	tn, _ := s.Tenant("alpha")
	if _, err := tn.Submit(context.Background(), strategy.Request{ID: overMax, Params: strategy.Params{Quality: 0.3, Cost: 0.9, Latency: 0.9}, K: 1}); !errors.Is(err, stream.ErrIDTooLong) {
		t.Errorf("Tenant.Submit with a %d-byte ID: %v, want ErrIDTooLong", len(overMax), err)
	}
	if got := tn.Snapshot().Epoch; got != first.Epoch {
		t.Errorf("epoch moved from %d to %d", first.Epoch, got)
	}
	hs.Close()
	s.Close()

	// Nothing was logged, and the restart recovers exactly the one
	// acknowledged request without an error.
	scanned, err := wal.Scan(filepath.Join(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if scanned.LastSeq != 1 || scanned.TornBytes != 0 {
		t.Errorf("WAL after the refusals: last seq %d, %d torn bytes; want 1, 0", scanned.LastSeq, scanned.TornBytes)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tn2, _ := s2.Tenant("alpha")
	if snap := tn2.Snapshot(); snap.Epoch != first.Epoch || len(snap.Requests) != 1 || snap.Requests[0].ID != "r1" {
		t.Errorf("recovered epoch %d with %d requests, want epoch %d with r1 only", snap.Epoch, len(snap.Requests), first.Epoch)
	}
}
