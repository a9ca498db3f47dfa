package conformance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stratrec/internal/server"
)

// OverloadProfile names a chaos traffic shape for RunOverload.
type OverloadProfile string

const (
	// ThunderingHerd: many writers submitting at once into a small inbox
	// with slow-apply injected, while readers hammer ADPaR alternatives
	// through a deliberately tiny query pool. The profile models the
	// paper's worst access pattern — displaced requests re-polling
	// alternatives while new work floods in.
	ThunderingHerd OverloadProfile = "thundering-herd"
	// RevokeStormShed: a base pool is admitted, then many writers race
	// revokes against fresh submits under inbox pressure, with a WAL
	// fsync failure injected mid-storm so the read-only circuit breaker
	// trips while sheds are in flight.
	RevokeStormShed OverloadProfile = "revoke-storm-shed"
	// AvailFlap: writers flap availability with globally unique values
	// between submit bursts; the recovered availability must be exactly
	// the acked flap with the highest epoch.
	AvailFlap OverloadProfile = "avail-flap"
)

// OverloadProfiles lists every profile RunOverload accepts.
var OverloadProfiles = []OverloadProfile{ThunderingHerd, RevokeStormShed, AvailFlap}

// OverloadConfig tunes a chaos overload run.
type OverloadConfig struct {
	Profile OverloadProfile
	// Seed picks the tenant catalog (and nothing else: the workload
	// itself is exhaustively accounted, not sampled).
	Seed int64
	// Strategies sizes the tenant catalog (0 = 16). Larger catalogs make
	// each ADPaR alternative solve proportionally heavier — the lever
	// for saturating the query pool.
	Strategies int
	// Workers is the number of concurrent writer goroutines (0 = 8).
	Workers int
	// OpsPerWorker is each writer's mutation budget (0 = 60).
	OpsPerWorker int
	// OpBuffer is the tenant inbox capacity (0 = 4; smaller than the
	// default worker count on purpose — with more writers than inbox
	// slots and slow-apply injected, queue-full sheds are structural,
	// not a timing accident).
	OpBuffer int
	// ApplyDelay is the injected slow-apply per mutation (0 = 300µs).
	ApplyDelay time.Duration
	// SolveDelay stretches each pooled alternative solve
	// (thundering-herd defaults to 1ms — the warm-index solve is
	// microseconds, far too fast to ever contend the pool).
	SolveDelay time.Duration
	// DeadlineMs, when > 0, attaches X-Request-Deadline-Ms to every
	// third mutation so the deadline shed paths run too.
	DeadlineMs int
	// WALFailSyncs fails every WAL fsync from the Nth onward (0 =
	// never), tripping the read-only breaker mid-run. RevokeStormShed
	// defaults it to 40 when unset.
	WALFailSyncs int
	// WALFailAppends fails every WAL record append from the Nth onward
	// (0 = never). Like a sync failure, an append failure rolls the log
	// back to its durable prefix, which excludes earlier records of the
	// same coalesced batch (a whole batch is buffered between commit
	// rounds), so the server must un-acknowledge those ops too (503,
	// absent after restart) or the ledger shows acked-but-absent
	// mutations.
	WALFailAppends int
	// P99Budget bounds the client-observed mutation latency p99 (0 = 2s
	// — generous, the point is that no mutation parks on a blocked send).
	P99Budget time.Duration
	// GroupCommitWindow is the WAL commit window of the overloaded
	// phase-1 server (0 = commit each batch as soon as it is appended):
	// the commit scheduler must uphold acked ⇒ fsynced and
	// no-trace-on-shed under the same chaos at any window. The restarted
	// server runs at window 0.
	GroupCommitWindow time.Duration
	// DataDir is the durability root; empty uses a temp dir removed
	// after a clean run and kept on violations (CI artifact).
	DataDir string
	// BetweenPhases, when non-nil, runs between the kill and the
	// restart with the durability root — the sabotage point teeth tests
	// use to prove the oracle catches lost acks and resurrected sheds.
	BetweenPhases func(dataDir string) error
}

func (cfg OverloadConfig) withDefaults() OverloadConfig {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 60
	}
	if cfg.OpBuffer <= 0 {
		cfg.OpBuffer = 4
	}
	if cfg.ApplyDelay <= 0 {
		cfg.ApplyDelay = 300 * time.Microsecond
	}
	if cfg.SolveDelay <= 0 && cfg.Profile == ThunderingHerd {
		cfg.SolveDelay = time.Millisecond
	}
	if cfg.P99Budget <= 0 {
		cfg.P99Budget = 2 * time.Second
	}
	if cfg.Strategies <= 0 {
		cfg.Strategies = 16
	}
	if cfg.Profile == RevokeStormShed && cfg.WALFailSyncs == 0 {
		cfg.WALFailSyncs = 40
	}
	return cfg
}

// OverloadResult is the shed-accounting ledger of one chaos run. It is
// JSON-serializable so a failing CI run can upload it as an artifact.
type OverloadResult struct {
	Profile OverloadProfile `json:"profile"`
	Seed    int64           `json:"seed"`
	// Acked counts 2xx mutations; every one must be present in the
	// recovered state. Shed counts 429/503 mutations; every one must be
	// absent. Domain counts expected domain errors (e.g. a revoke that
	// lost its race), which are neither.
	Acked  int `json:"acked"`
	Shed   int `json:"shed"`
	Domain int `json:"domain"`
	// ReadSheds counts 429s on the ADPaR alternative read path
	// (thundering-herd only); reads carry no accounting obligations.
	ReadSheds int `json:"read_sheds"`
	// P99 is the client-observed mutation latency p99.
	P99 time.Duration `json:"p99_ns"`
	// RecoveryDuration is the restart's server.New time.
	RecoveryDuration time.Duration `json:"recovery_ns"`
	// Violations lists every broken accounting invariant; empty = pass.
	Violations []string `json:"violations"`
	// DataDir is the durability root; it still exists iff the run
	// violated or errored.
	DataDir string `json:"data_dir"`
}

// OK reports whether the run satisfied every accounting invariant.
func (r *OverloadResult) OK() bool { return len(r.Violations) == 0 }

// WriteArtifact dumps the ledger as indented JSON to path.
func (r *OverloadResult) WriteArtifact(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (r *OverloadResult) String() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "overload %s seed=%d: %d acked, %d shed, %d domain, %d read-shed, p99=%v, recovery=%v",
		r.Profile, r.Seed, r.Acked, r.Shed, r.Domain, r.ReadSheds, r.P99, r.RecoveryDuration)
	for _, v := range r.Violations {
		fmt.Fprintf(&buf, "\n  VIOLATION: %s", v)
	}
	return buf.String()
}

// ackRecord is one acknowledged mutation as the client saw it.
type ackRecord struct {
	kind  Kind
	id    string  // submit/revoke
	w     float64 // drift
	epoch uint64
	trace string // the X-Trace-Id the mutation carried
}

// workerLedger is one writer's private accounting — merged after the
// storm, so the hot path takes no shared locks.
type workerLedger struct {
	acked      []ackRecord
	shedSubmit []string
	shedRevoke []string
	// shedTraces collects the trace IDs of every shed mutation (submit,
	// revoke and drift): each must correlate to exactly one "shed" log
	// line, the observability half of the no-trace-on-shed promise.
	shedTraces []string
	domain     int
	latencies  []time.Duration
	err        error
}

// RunOverload is the chaos shed-accounting oracle. It drives one durable
// tenant with concurrent writers through the real HTTP stack while fault
// injection (slow-apply, inbox pressure, optional WAL fsync failures)
// forces admission control to shed, then kills the server, restarts it
// from disk, and verifies exactly-once accounting:
//
//   - every 2xx-acked submit (not later acked-revoked) is present in the
//     recovered state, with the exact parameters submitted;
//   - every shed (429/503) submit is absent, and every shed revoke left
//     its target present;
//   - acked mutations carry exactly the epochs 1..N (no gap, no dup) and
//     the recovered epoch is N — acked ⇔ logged ⇔ recovered, exactly once;
//   - the recovered availability is the acked drift with the highest
//     epoch (drift values are globally unique, so this is sharp);
//   - client-observed mutation latency p99 stays under budget (a blocking
//     enqueue would park writers arbitrarily long — the tail this layer
//     removes);
//   - the profile actually shed: a chaos run that never triggered
//     admission control proves nothing and is reported as a violation.
//
// Workers own disjoint ID spaces, submit each ID at most once and revoke
// only IDs whose submit they saw acked, so set comparison against the
// recovered state needs no cross-worker ordering assumptions; the total
// order the accounting does use — the epoch — is the one the server
// acknowledges explicitly.
func RunOverload(cfg OverloadConfig) (*OverloadResult, error) {
	cfg = cfg.withDefaults()
	res := &OverloadResult{Profile: cfg.Profile, Seed: cfg.Seed}
	switch cfg.Profile {
	case ThunderingHerd, RevokeStormShed, AvailFlap:
	default:
		return res, fmt.Errorf("conformance: unknown overload profile %q", cfg.Profile)
	}

	tr, err := Generate(GenConfig{Seed: cfg.Seed, Events: 1, Tenants: 1, Strategies: cfg.Strategies})
	if err != nil {
		return res, err
	}
	spec := tr.Tenants[0]
	model, err := newTenantModel(spec)
	if err != nil {
		return res, err
	}

	dataDir := cfg.DataDir
	if dataDir == "" {
		tmp, err := os.MkdirTemp("", "stratrec-overload-*")
		if err != nil {
			return res, err
		}
		dataDir = tmp
	} else if entries, err := os.ReadDir(dataDir); err == nil && len(entries) > 0 {
		return res, fmt.Errorf("conformance: overload data dir %s is not empty", dataDir)
	} else if err := os.MkdirAll(dataDir, 0o755); err != nil {
		// The log journal below opens before server.New creates any
		// tenant directory.
		return res, err
	}
	res.DataDir = dataDir
	keep := false
	defer func() {
		if !keep && cfg.DataDir == "" {
			os.RemoveAll(dataDir)
		}
	}()

	// Phase 1 server: small inbox, injected faults, tiny query pool.
	syncs := 0
	faults := &server.Faults{
		ApplyDelay: func(kind, id string) time.Duration { return cfg.ApplyDelay },
		SolveDelay: cfg.SolveDelay,
	}
	if cfg.WALFailSyncs > 0 {
		faults.WALSync = func() error {
			syncs++ // sequential per tenant, per Faults contract
			if syncs >= cfg.WALFailSyncs {
				return fmt.Errorf("injected fsync failure (sync %d)", syncs)
			}
			return nil
		}
	}
	if cfg.WALFailAppends > 0 {
		appends := 0
		faults.WALAppend = func() error {
			appends++ // loop goroutine only, per Faults contract
			if appends >= cfg.WALFailAppends {
				return fmt.Errorf("injected append failure (append %d)", appends)
			}
			return nil
		}
	}
	tenantCfg := server.TenantConfig{
		Set:       model.set,
		Models:    model.models,
		Mode:      model.mode,
		Objective: model.objective,
		InitialW:  spec.InitialW,
		OpBuffer:  cfg.OpBuffer,
		Faults:    faults,
	}
	// The phase-1 server logs structured events through a recorder that
	// both persists them (CI artifact on failure) and indexes terminal
	// events by trace for the correlation check below.
	rec, err := newLogRecorder(filepath.Join(dataDir, "structured-logs.jsonl"))
	if err != nil {
		keep = true
		return res, err
	}
	s1, err := server.New(server.Config{
		Tenants:              map[string]server.TenantConfig{spec.Name: tenantCfg},
		DataDir:              dataDir,
		WALGroupCommitWindow: cfg.GroupCommitWindow,
		ADPaRWorkers:         1,
		ADPaRQueue:           1,
		Logger:               slog.New(rec),
	})
	if err != nil {
		keep = true
		rec.close()
		return res, err
	}
	hs := httptest.NewServer(s1.Handler())

	ledgers := runStorm(hs, spec.Name, cfg, res)
	hs.Close()
	s1.Close() // the kill: WAL closes with only-acked bytes on disk
	if err := rec.close(); err != nil {
		keep = true
		return res, err
	}
	for _, l := range ledgers {
		if l.err != nil {
			keep = true
			return res, l.err
		}
	}

	if cfg.BetweenPhases != nil {
		if err := cfg.BetweenPhases(dataDir); err != nil {
			keep = true
			return res, err
		}
	}

	// Restart from disk with a clean config: no faults, real pool. The
	// fsync-failure schedule must not survive the operator restart the
	// read-only breaker asks for.
	tenantCfg.Faults = nil
	start := time.Now() //lint:allow clockdiscipline -- RecoveryDuration reports real restart latency to the operator
	s2, err := server.New(server.Config{
		Tenants: map[string]server.TenantConfig{spec.Name: tenantCfg},
		DataDir: dataDir,
	})
	res.RecoveryDuration = time.Since(start) //lint:allow clockdiscipline -- RecoveryDuration reports real restart latency to the operator
	if err != nil {
		keep = true
		return res, fmt.Errorf("conformance: recovery after overload: %w", err)
	}
	defer s2.Close()
	tn, err := s2.Tenant(spec.Name)
	if err != nil {
		keep = true
		return res, err
	}

	verifyAccounting(cfg, spec.InitialW, ledgers, tn, res)
	verifyTraceCorrelation(ledgers, rec, res)
	if !res.OK() {
		keep = true
	}
	return res, nil
}

// runStorm fires the profile's writer (and, for thundering-herd, reader)
// goroutines against the live server and returns their ledgers.
func runStorm(hs *httptest.Server, tenant string, cfg OverloadConfig, res *OverloadResult) []*workerLedger {
	client := hs.Client()
	base := hs.URL + "/v1/tenants/" + tenant

	startGate := make(chan struct{})
	stopReads := make(chan struct{})
	var readSheds atomic.Int64
	var readers sync.WaitGroup
	if cfg.Profile == ThunderingHerd {
		// Readers hammer the alternative endpoint of whatever request is
		// currently displaced, through a 1-worker/1-queued pool: most
		// must shed 429 without perturbing mutation accounting. They run
		// until the writers finish.
		for r := 0; r < 8; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				<-startGate
				var target string
				for {
					select {
					case <-stopReads:
						return
					default:
					}
					hammerAlternative(client, base, &target, &readSheds)
				}
			}()
		}
	}

	ledgers := make([]*workerLedger, cfg.Workers)
	var writers sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		led := &workerLedger{}
		ledgers[w] = led
		writers.Add(1)
		go func(w int, led *workerLedger) {
			defer writers.Done()
			<-startGate
			driveWorker(client, base, cfg, w, led)
		}(w, led)
	}
	close(startGate)
	writers.Wait()
	close(stopReads)
	readers.Wait()
	res.ReadSheds = int(readSheds.Load())
	return ledgers
}

// hammerAlternative queries the alternative of a displaced request;
// 200/404/409 are fine, 429 is the pool shedding (counted), anything else
// is ignored here — reads carry no accounting obligations. The reader
// sticks to its target across calls (refreshing only when the target is
// gone), so the readers genuinely pile onto the pool instead of spending
// their time decoding plans.
func hammerAlternative(client *http.Client, base string, target *string, readSheds *atomic.Int64) {
	if *target == "" {
		resp, err := client.Get(base + "/plan")
		if err != nil {
			return
		}
		var plan server.PlanResponse
		err = json.NewDecoder(resp.Body).Decode(&plan)
		resp.Body.Close()
		if err != nil || len(plan.Displaced) == 0 {
			return
		}
		*target = plan.Displaced[0]
	}
	resp, err := client.Get(base + "/requests/" + *target + "/alternative")
	if err != nil {
		return
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		readSheds.Add(1)
	case http.StatusNotFound, http.StatusConflict:
		*target = "" // revoked or now serving: pick a new one
	}
}

// driveWorker runs one writer's op sequence for the profile. IDs live in
// the worker's own space ("w3-17"); drift values are globally unique
// (worker w, op i → a value no other (w,i) produces).
func driveWorker(client *http.Client, base string, cfg OverloadConfig, w int, led *workerLedger) {
	for i := 0; i < cfg.OpsPerWorker; i++ {
		deadline := 0
		if cfg.DeadlineMs > 0 && i%3 == 2 {
			deadline = cfg.DeadlineMs
		}
		switch cfg.Profile {
		case AvailFlap:
			if i%4 == 3 {
				// Globally unique availability in (0, 1): distinct for
				// every (worker, op) pair, so the recovered value
				// identifies exactly one acked drift.
				k := w*cfg.OpsPerWorker + i
				v := 0.05 + 0.9*float64(k)/float64(cfg.Workers*cfg.OpsPerWorker)
				doDrift(client, base, v, deadline, led)
				continue
			}
			doSubmit(client, base, cfg, w, i, deadline, led)
		case RevokeStormShed:
			if i%3 == 2 && len(led.acked) > 0 {
				// Revoke the worker's own most recent acked submit.
				for j := len(led.acked) - 1; j >= 0; j-- {
					if led.acked[j].kind == KindSubmit && !revokedAlready(led, led.acked[j].id) {
						doRevoke(client, base, led.acked[j].id, deadline, led)
						break
					}
				}
				continue
			}
			doSubmit(client, base, cfg, w, i, deadline, led)
		default: // ThunderingHerd
			doSubmit(client, base, cfg, w, i, deadline, led)
		}
		if led.err != nil {
			return
		}
	}
}

func revokedAlready(led *workerLedger, id string) bool {
	for _, a := range led.acked {
		if a.kind == KindRevoke && a.id == id {
			return true
		}
	}
	for _, s := range led.shedRevoke {
		if s == id {
			return true
		}
	}
	return false
}

// submitParams derives the deterministic parameters for worker w's op i,
// so the recovered-state check can verify them byte-for-byte. Qualities
// span up to 0.9 so the pool always outgrows the availability and keeps a
// displaced population for the alternative-query readers to hammer.
func submitParams(w, i int) (q, c, l float64) {
	q = 0.30 + 0.006*float64((w*7+i)%100)
	return q, 0.90, 0.90
}

func doSubmit(client *http.Client, base string, cfg OverloadConfig, w, i, deadlineMs int, led *workerLedger) {
	id := fmt.Sprintf("w%d-%d", w, i)
	trace := "sub-" + id // worker-scoped ID spaces make these globally unique
	q, c, l := submitParams(w, i)
	body, _ := json.Marshal(server.SubmitRequest{ID: id, Quality: q, Cost: c, Latency: l, K: 1})
	status, out, err := doMutation(client, "POST", base+"/requests", body, deadlineMs, trace, led)
	if err != nil {
		led.err = err
		return
	}
	switch {
	case status == http.StatusOK:
		led.acked = append(led.acked, ackRecord{kind: KindSubmit, id: id, epoch: out.Epoch, trace: trace})
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		led.shedSubmit = append(led.shedSubmit, id)
		led.shedTraces = append(led.shedTraces, trace)
	case status >= 400 && status < 500:
		led.domain++
	default:
		led.err = fmt.Errorf("conformance: submit %s: unexpected status %d", id, status)
	}
}

func doRevoke(client *http.Client, base string, id string, deadlineMs int, led *workerLedger) {
	trace := "rev-" + id // one revoke per ID per worker (see revokedAlready)
	status, out, err := doMutation(client, "DELETE", base+"/requests/"+id, nil, deadlineMs, trace, led)
	if err != nil {
		led.err = err
		return
	}
	switch {
	case status == http.StatusOK:
		led.acked = append(led.acked, ackRecord{kind: KindRevoke, id: id, epoch: out.Epoch, trace: trace})
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		led.shedRevoke = append(led.shedRevoke, id)
		led.shedTraces = append(led.shedTraces, trace)
	case status >= 400 && status < 500:
		led.domain++
	default:
		led.err = fmt.Errorf("conformance: revoke %s: unexpected status %d", id, status)
	}
}

func doDrift(client *http.Client, base string, w float64, deadlineMs int, led *workerLedger) {
	trace := fmt.Sprintf("drift-%v", w) // drift values are globally unique
	body, _ := json.Marshal(server.AvailabilityRequest{Workforce: w})
	status, out, err := doMutation(client, "PUT", base+"/availability", body, deadlineMs, trace, led)
	if err != nil {
		led.err = err
		return
	}
	switch {
	case status == http.StatusOK:
		led.acked = append(led.acked, ackRecord{kind: KindDrift, w: w, epoch: out.Epoch, trace: trace})
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		// A shed drift simply never happened in the recovered state, but
		// its shed must still log exactly once.
		led.shedTraces = append(led.shedTraces, trace)
	case status >= 400 && status < 500:
		led.domain++
	default:
		led.err = fmt.Errorf("conformance: drift %v: unexpected status %d", w, status)
	}
}

// mutationAck is the part of every 2xx mutation body the ledger needs.
type mutationAck struct {
	Epoch uint64 `json:"epoch"`
}

// doMutation performs one HTTP mutation, timing it and validating the
// 429/503 Retry-After contract and the trace echo.
func doMutation(client *http.Client, method, url string, body []byte, deadlineMs int, trace string, led *workerLedger) (int, mutationAck, error) {
	var out mutationAck
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, out, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if deadlineMs > 0 {
		req.Header.Set(server.DeadlineHeader, strconv.Itoa(deadlineMs))
	}
	req.Header.Set(server.TraceHeader, trace)
	start := time.Now() //lint:allow clockdiscipline -- storm ledgers record real HTTP round-trip latency
	resp, err := client.Do(req)
	elapsed := time.Since(start) //lint:allow clockdiscipline -- storm ledgers record real HTTP round-trip latency
	if err != nil {
		return 0, out, err
	}
	defer resp.Body.Close()
	led.latencies = append(led.latencies, elapsed)
	if echo := resp.Header.Get(server.TraceHeader); echo != trace {
		return resp.StatusCode, out, fmt.Errorf("conformance: trace echo %q != sent %q", echo, trace)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return resp.StatusCode, out, fmt.Errorf("conformance: decoding ack: %w", err)
		}
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			return resp.StatusCode, out, fmt.Errorf("conformance: %d response without Retry-After", resp.StatusCode)
		} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
			return resp.StatusCode, out, fmt.Errorf("conformance: %d response with bad Retry-After %q", resp.StatusCode, ra)
		}
	}
	return resp.StatusCode, out, nil
}

// verifyAccounting merges the ledgers and checks every invariant against
// the recovered tenant.
func verifyAccounting(cfg OverloadConfig, initialW float64, ledgers []*workerLedger, tn *server.Tenant, res *OverloadResult) {
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	var acked []ackRecord
	shedSubmits := map[string]bool{}
	shedRevokes := map[string]bool{}
	var lat []time.Duration
	for _, led := range ledgers {
		acked = append(acked, led.acked...)
		for _, id := range led.shedSubmit {
			shedSubmits[id] = true
		}
		for _, id := range led.shedRevoke {
			shedRevokes[id] = true
		}
		res.Domain += led.domain
		lat = append(lat, led.latencies...)
	}
	res.Acked = len(acked)
	// Every completed mutation is acked, shed or a domain error (any
	// other outcome aborted the run), so sheds — including drift sheds,
	// which need no per-ID record — fall out of the totals.
	res.Shed = len(lat) - res.Acked - res.Domain

	// Teeth: a chaos profile that never shed proves nothing.
	if res.Shed == 0 {
		violate("profile %s produced zero sheds — overload never engaged (tune OpBuffer/ApplyDelay)", cfg.Profile)
	}

	// Epoch exactly-once: acked epochs are exactly {1..N}, recovered
	// epoch is N. Valid even under an injected WAL failure: the
	// applied-but-undurable mutations (up to a whole coalesced batch for
	// a failed commit round or append) are by construction the last
	// applies before read-only, and none of them was acked.
	sort.Slice(acked, func(i, j int) bool { return acked[i].epoch < acked[j].epoch })
	for i, a := range acked {
		if a.epoch != uint64(i+1) {
			violate("acked epochs not contiguous: position %d holds epoch %d (want %d) — an ack was lost or duplicated", i, a.epoch, i+1)
			break
		}
	}
	snap := tn.Snapshot()
	if snap.Epoch != uint64(len(acked)) {
		violate("recovered epoch %d != %d acked mutations — recovery replayed more or less than was acknowledged", snap.Epoch, len(acked))
	}

	// Presence: acked submits minus acked revokes, exactly.
	expect := map[string]bool{}
	var lastDrift *ackRecord
	for i := range acked {
		a := acked[i]
		switch a.kind {
		case KindSubmit:
			expect[a.id] = true
		case KindRevoke:
			if !expect[a.id] {
				violate("acked revoke of %s without an acked submit — worker protocol broken", a.id)
			}
			delete(expect, a.id)
		case KindDrift:
			lastDrift = &acked[i]
		}
	}
	got := map[string]bool{}
	for _, rs := range snap.Requests {
		got[rs.ID] = true
		if !expect[rs.ID] {
			switch {
			case shedSubmits[rs.ID]:
				violate("shed (429/503) submit %s is PRESENT in recovered state — a rejected mutation left a trace", rs.ID)
			default:
				violate("recovered request %s was never acked (nor shed) — phantom state", rs.ID)
			}
			continue
		}
		w, i, ok := parseWorkerID(rs.ID)
		if ok {
			q, c, l := submitParams(w, i)
			if rs.Request.Quality != q || rs.Request.Cost != c || rs.Request.Latency != l {
				violate("recovered request %s has params (%v,%v,%v), submitted (%v,%v,%v)",
					rs.ID, rs.Request.Quality, rs.Request.Cost, rs.Request.Latency, q, c, l)
			}
		}
	}
	for id := range expect {
		if !got[id] {
			violate("acked (2xx) submit %s is ABSENT from recovered state — an acknowledged mutation was lost", id)
		}
	}
	for id := range shedRevokes {
		if expect[id] && !got[id] {
			violate("shed revoke of %s took effect — target absent despite 429/503", id)
		}
	}

	// Availability: the acked drift with the highest epoch (values are
	// globally unique) or the initial workforce when none was acked.
	wantW := initialW
	if lastDrift != nil {
		wantW = lastDrift.w
	}
	if snap.Availability != wantW {
		violate("recovered availability %v != %v (acked drift with highest epoch)", snap.Availability, wantW)
	}

	// Latency tail: admission control exists so no writer ever parks on
	// a blocked send.
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		res.P99 = lat[len(lat)*99/100]
		if res.P99 > cfg.P99Budget {
			violate("mutation latency p99 %v exceeds budget %v", res.P99, cfg.P99Budget)
		}
	}
}

// verifyTraceCorrelation checks the logging contract against the
// phase-1 structured log: every client-observed ack correlates to
// exactly one "reply" terminal line by trace ID, every client-observed
// shed to exactly one "shed" line. More than one terminal line per
// mutation would break log-based accounting (double-counted ops);
// zero would make an invisible outcome; a shed logged as "reply" (or
// vice versa) would contradict what the client was told.
func verifyTraceCorrelation(ledgers []*workerLedger, rec *logRecorder, res *OverloadResult) {
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	for _, led := range ledgers {
		for _, a := range led.acked {
			switch terms := rec.terminals(a.trace); {
			case len(terms) == 0:
				violate("acked mutation (trace %s) has no terminal log line", a.trace)
			case len(terms) > 1:
				violate("acked mutation (trace %s) has %d terminal log lines %v, want exactly one", a.trace, len(terms), terms)
			case terms[0] != "reply":
				violate("acked mutation (trace %s) logged terminal %q, want reply", a.trace, terms[0])
			}
		}
		for _, trace := range led.shedTraces {
			switch terms := rec.terminals(trace); {
			case len(terms) == 0:
				violate("shed mutation (trace %s) has no terminal log line", trace)
			case len(terms) > 1:
				violate("shed mutation (trace %s) has %d terminal log lines %v, want exactly one", trace, len(terms), terms)
			case terms[0] != "shed":
				violate("shed mutation (trace %s) logged terminal %q, want shed", trace, terms[0])
			}
		}
	}
}

// parseWorkerID decodes a "w<worker>-<op>" request ID.
func parseWorkerID(id string) (w, i int, ok bool) {
	if _, err := fmt.Sscanf(id, "w%d-%d", &w, &i); err != nil {
		return 0, 0, false
	}
	return w, i, true
}
