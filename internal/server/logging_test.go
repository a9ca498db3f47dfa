package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// logSink collects structured events across handler clones — the test
// double behind Config.Logger. Attribute values are flattened to strings
// so assertions read naturally.
type logSink struct {
	mu     sync.Mutex
	events []capturedEvent
}

type capturedEvent struct {
	msg   string
	level slog.Level
	attrs map[string]string
}

// byMsg returns the captured events with the given message, in order.
func (s *logSink) byMsg(msg string) []capturedEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []capturedEvent
	for _, e := range s.events {
		if e.msg == msg {
			out = append(out, e)
		}
	}
	return out
}

// terminals returns reply and shed events carrying the given trace ID —
// the lines the exactly-one-terminal-event contract is about.
func (s *logSink) terminals(trace string) []capturedEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []capturedEvent
	for _, e := range s.events {
		if (e.msg == evReply || e.msg == evShed) && e.attrs["trace"] == trace {
			out = append(out, e)
		}
	}
	return out
}

type captureHandler struct {
	sink  *logSink
	level slog.Level
	bound []slog.Attr
}

func (h *captureHandler) Enabled(_ context.Context, l slog.Level) bool { return l >= h.level }

func (h *captureHandler) Handle(_ context.Context, r slog.Record) error {
	e := capturedEvent{msg: r.Message, level: r.Level, attrs: map[string]string{}}
	for _, a := range h.bound {
		e.attrs[a.Key] = a.Value.String()
	}
	r.Attrs(func(a slog.Attr) bool {
		e.attrs[a.Key] = a.Value.String()
		return true
	})
	h.sink.mu.Lock()
	h.sink.events = append(h.sink.events, e)
	h.sink.mu.Unlock()
	return nil
}

func (h *captureHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	bound := append(append([]slog.Attr{}, h.bound...), attrs...)
	return &captureHandler{sink: h.sink, level: h.level, bound: bound}
}

func (h *captureHandler) WithGroup(string) slog.Handler { return h }

// captureLogger returns a logger recording into a fresh sink.
func captureLogger(level slog.Level) (*slog.Logger, *logSink) {
	sink := &logSink{}
	return slog.New(&captureHandler{sink: sink, level: level}), sink
}

// TestTraceIDValidation: the middleware's accept/replace rule — printable
// ASCII up to 64 bytes passes through, anything else is regenerated.
func TestTraceIDValidation(t *testing.T) {
	for _, ok := range []string{"abc", "req-1/2.3", "x", strings.Repeat("a", 64)} {
		if !validTraceID(ok) {
			t.Errorf("validTraceID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "has space", "tab\tseparated", "new\nline", "ünïcode", strings.Repeat("a", 65)} {
		if validTraceID(bad) {
			t.Errorf("validTraceID(%q) = true", bad)
		}
	}
	a, b := newTraceID(), newTraceID()
	if !validTraceID(a) || a == b {
		t.Fatalf("generated trace IDs: %q, %q", a, b)
	}
}

// TestTraceMiddlewareEcho: every response carries X-Trace-Id — the
// caller's when presented and valid, a generated one otherwise — and
// error envelopes repeat it in trace_id.
func TestTraceMiddlewareEcho(t *testing.T) {
	cfg := Config{Tenants: map[string]TenantConfig{"alpha": fixedTenant(4, 0.7)}}
	_, hs := newTestServer(t, cfg)
	client := hs.Client()

	// Caller-supplied ID round-trips.
	req, _ := http.NewRequest("GET", hs.URL+"/v1/tenants/alpha/plan", nil)
	req.Header.Set(TraceHeader, "trace-echo-1")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "trace-echo-1" {
		t.Fatalf("echoed trace = %q, want trace-echo-1", got)
	}

	// No header: the server generates one.
	resp, err = client.Get(hs.URL + "/v1/tenants/alpha/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); !validTraceID(got) {
		t.Fatalf("generated trace = %q", got)
	}

	// Invalid header: replaced, not echoed.
	req, _ = http.NewRequest("GET", hs.URL+"/v1/tenants/alpha/plan", nil)
	req.Header.Set(TraceHeader, strings.Repeat("x", 200))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); !validTraceID(got) || strings.HasPrefix(got, "xxx") {
		t.Fatalf("invalid inbound trace not replaced: %q", got)
	}

	// Error envelope: trace_id matches the response header.
	req, _ = http.NewRequest("DELETE", hs.URL+"/v1/tenants/alpha/requests/ghost", nil)
	req.Header.Set(TraceHeader, "trace-err-1")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var envelope ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || envelope.Error.TraceID != "trace-err-1" {
		t.Fatalf("error envelope: status %d, trace %q", resp.StatusCode, envelope.Error.TraceID)
	}
}

// TestTerminalEventSingleOp: one acknowledged mutation produces exactly
// one terminal log line — a "reply" carrying the caller's trace ID, the
// op kind and ID, and the post-apply epoch.
func TestTerminalEventSingleOp(t *testing.T) {
	logger, sink := captureLogger(slog.LevelDebug)
	cfg := Config{
		Tenants: map[string]TenantConfig{"alpha": fixedTenant(4, 0.7)},
		Logger:  logger,
	}
	_, hs := newTestServer(t, cfg)

	body, _ := json.Marshal(SubmitRequest{ID: "r1", Quality: 0.4, Cost: 0.9, Latency: 0.9, K: 1})
	req, _ := http.NewRequest("POST", hs.URL+"/v1/tenants/alpha/requests", bytes.NewReader(body))
	req.Header.Set(TraceHeader, "trace-single")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	terms := sink.terminals("trace-single")
	if len(terms) != 1 {
		t.Fatalf("terminal events for trace-single: %d (%v), want exactly 1", len(terms), terms)
	}
	e := terms[0]
	if e.msg != evReply || e.attrs["kind"] != "submit" || e.attrs["id"] != "r1" ||
		e.attrs["tenant"] != "alpha" || e.attrs["epoch"] == "0" {
		t.Fatalf("reply event: %+v", e)
	}
	// The per-op debug events carry the same trace end to end; publish is
	// batch-level (one publish may cover many traces) so only its
	// presence is checked.
	for _, msg := range []string{evAdmit, evApply} {
		events := sink.byMsg(msg)
		if len(events) == 0 {
			t.Fatalf("no %s event captured", msg)
		}
		found := false
		for _, e := range events {
			if e.attrs["trace"] == "trace-single" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s events lost the trace: %+v", msg, events)
		}
	}
	if len(sink.byMsg(evPublish)) == 0 {
		t.Fatal("no publish event captured")
	}
}

// TestTerminalEventBatch: each op of a batched ingest gets its own
// terminal reply, all sharing the request's trace ID.
func TestTerminalEventBatch(t *testing.T) {
	logger, sink := captureLogger(slog.LevelInfo)
	cfg := Config{
		Tenants: map[string]TenantConfig{"alpha": fixedTenant(4, 0.7)},
		Logger:  logger,
	}
	_, hs := newTestServer(t, cfg)

	body, _ := json.Marshal(BatchRequest{Ops: []BatchOp{
		{Op: OpSubmit, ID: "b1", Quality: 0.4, Cost: 0.9, Latency: 0.9, K: 1},
		{Op: OpSubmit, ID: "b2", Quality: 0.45, Cost: 0.9, Latency: 0.9, K: 1},
		{Op: OpRevoke, ID: "b1"},
	}})
	req, _ := http.NewRequest("POST", hs.URL+"/v1/tenants/alpha/ops", bytes.NewReader(body))
	req.Header.Set(TraceHeader, "trace-batch")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(br.Results) != 3 {
		t.Fatalf("batch: status %d, results %+v", resp.StatusCode, br.Results)
	}

	terms := sink.terminals("trace-batch")
	if len(terms) != 3 {
		t.Fatalf("terminal events for trace-batch: %d, want 3 (one per op)", len(terms))
	}
	for i, want := range []struct{ kind, id string }{
		{"submit", "b1"}, {"submit", "b2"}, {"revoke", "b1"},
	} {
		e := terms[i]
		if e.msg != evReply || e.attrs["kind"] != want.kind || e.attrs["id"] != want.id {
			t.Fatalf("batch terminal %d: %+v, want %s %s", i, e, want.kind, want.id)
		}
	}
}

// TestShedEventsCarryTrace: both admission sheds — queue-full and
// deadline — emit exactly one "shed" terminal event with the caller's
// trace, and the HTTP reply's envelope carries the same ID.
func TestShedEventsCarryTrace(t *testing.T) {
	logger, sink := captureLogger(slog.LevelInfo)
	tcfg, gate, entered := gatedTenantConfig(1, 1)
	cfg := Config{
		Tenants: map[string]TenantConfig{"alpha": tcfg},
		Logger:  logger,
	}
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	s, hs := newTestServer(t, cfg)
	t.Cleanup(openGate) // release the loop before the server cleanup closes it

	// Freeze the loop on "a", fill the single-slot inbox with "b".
	tn, _ := s.Tenant("alpha")
	go func() { tn.Submit(context.Background(), submitReqN("a", 0.52)) }()
	entered.Wait()
	go func() { tn.Submit(context.Background(), submitReqN("b", 0.52)) }()
	for len(tn.ops) == 0 {
		time.Sleep(time.Millisecond)
	}

	// "c" is shed queue-full over HTTP with a trace attached.
	body, _ := json.Marshal(SubmitRequest{ID: "c", Quality: 0.52, Cost: 0.9, Latency: 0.9, K: 1})
	req, _ := http.NewRequest("POST", hs.URL+"/v1/tenants/alpha/requests", bytes.NewReader(body))
	req.Header.Set(TraceHeader, "trace-shed")
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var envelope ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || envelope.Error.TraceID != "trace-shed" {
		t.Fatalf("shed reply: status %d, trace %q", resp.StatusCode, envelope.Error.TraceID)
	}

	terms := sink.terminals("trace-shed")
	if len(terms) != 1 {
		t.Fatalf("terminal events for trace-shed: %d, want exactly 1", len(terms))
	}
	e := terms[0]
	if e.msg != evShed || e.level != slog.LevelWarn || e.attrs["kind"] != "submit" ||
		e.attrs["id"] != "c" || !strings.Contains(e.attrs["error"], "overloaded") {
		t.Fatalf("shed event: %+v", e)
	}

	// Deadline shed: a queued op whose projected wait exceeds an
	// impossible deadline, same contract.
	pinLatency(tn, 50*time.Millisecond)
	req, _ = http.NewRequest("POST", hs.URL+"/v1/tenants/alpha/requests",
		bytes.NewReader(mustJSON(t, SubmitRequest{ID: "d", Quality: 0.52, Cost: 0.9, Latency: 0.9, K: 1})))
	req.Header.Set(TraceHeader, "trace-deadline")
	req.Header.Set(DeadlineHeader, "1")
	resp, err = hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("deadline shed status %d", resp.StatusCode)
	}
	terms = sink.terminals("trace-deadline")
	if len(terms) != 1 || terms[0].msg != evShed {
		t.Fatalf("terminal events for trace-deadline: %+v, want one shed", terms)
	}
}

// TestRefusedBodySettlesEachOp: a body refused at admission — the tenant
// read-only, the tenant draining, or a deadline the projected queue wait
// already overshoots — gets one 503/429 for the whole body, yet every op
// it carried moves its counter once and leaves one "shed" line with its
// own kind and id and the request's trace, on either wire shape.
func TestRefusedBodySettlesEachOp(t *testing.T) {
	type opRef struct{ kind, id string }
	shapes := []struct {
		name, path string
		body       any
		ops        []opRef
	}{
		{"per-op", "/requests", SubmitRequest{ID: "a", Quality: 0.4, Cost: 0.9, Latency: 0.9, K: 1},
			[]opRef{{"submit", "a"}}},
		{"ops-body", "/ops", BatchRequest{Ops: []BatchOp{
			{Op: OpSubmit, ID: "a", Quality: 0.4, Cost: 0.9, Latency: 0.9, K: 1},
			{Op: OpRevoke, ID: "a"},
			{Op: OpAvailability, Workforce: 0.6},
		}}, []opRef{{"submit", "a"}, {"revoke", "a"}, {"availability", ""}}},
	}
	refusals := []struct {
		name   string
		status int
		refuse func(*Tenant, *http.Request)
		// counters must each move once per op.
		counters map[string]func(*tenantMetrics) int64
	}{
		{"read-only", http.StatusServiceUnavailable,
			func(tn *Tenant, _ *http.Request) { tn.readOnly.Store(true) },
			map[string]func(*tenantMetrics) int64{
				"errors":           func(m *tenantMetrics) int64 { return m.errors.Value() },
				"sheds_wal_broken": func(m *tenantMetrics) int64 { return m.shedsWALBroken.Value() },
			}},
		{"draining", http.StatusServiceUnavailable,
			func(tn *Tenant, _ *http.Request) { tn.draining.Store(true) },
			map[string]func(*tenantMetrics) int64{
				"errors":       func(m *tenantMetrics) int64 { return m.errors.Value() },
				"sheds_closed": func(m *tenantMetrics) int64 { return m.shedsClosed.Value() },
			}},
		{"deadline", http.StatusTooManyRequests,
			func(tn *Tenant, r *http.Request) {
				pinLatency(tn, 50*time.Millisecond)
				r.Header.Set(DeadlineHeader, "1")
			},
			map[string]func(*tenantMetrics) int64{
				"sheds_deadline": func(m *tenantMetrics) int64 { return m.shedsDeadline.Value() },
			}},
	}
	for _, rf := range refusals {
		for _, sh := range shapes {
			t.Run(rf.name+"/"+sh.name, func(t *testing.T) {
				logger, sink := captureLogger(slog.LevelInfo)
				s, hs := newTestServer(t, Config{
					Tenants: map[string]TenantConfig{"alpha": fixedTenant(4, 0.7)},
					Logger:  logger,
				})
				tn, _ := s.Tenant("alpha")
				req := newJSONRequest(t, http.MethodPost, hs.URL+"/v1/tenants/alpha"+sh.path, sh.body)
				trace := "refused-" + rf.name + "-" + sh.name
				req.Header.Set(TraceHeader, trace)
				rf.refuse(tn, req)
				before := map[string]int64{}
				for name, c := range rf.counters {
					before[name] = c(tn.met)
				}
				resp, err := hs.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != rf.status {
					t.Fatalf("status %d, want one %d for the whole body", resp.StatusCode, rf.status)
				}
				for name, c := range rf.counters {
					if got := c(tn.met) - before[name]; got != int64(len(sh.ops)) {
						t.Errorf("%s moved by %d, want %d (one per op)", name, got, len(sh.ops))
					}
				}
				terms := sink.terminals(trace)
				if len(terms) != len(sh.ops) {
					t.Fatalf("terminal events: %d, want %d (%+v)", len(terms), len(sh.ops), terms)
				}
				for i, e := range terms {
					if e.msg != evShed || e.attrs["kind"] != sh.ops[i].kind || e.attrs["id"] != sh.ops[i].id {
						t.Errorf("terminal %d: %+v, want shed %s %q", i, e, sh.ops[i].kind, sh.ops[i].id)
					}
				}
			})
		}
	}
}

// pinLatency fixes the tenant's batch-latency EWMA so projected-wait
// admission math is deterministic in tests.
func pinLatency(tn *Tenant, d time.Duration) {
	tn.batchLatency.nanos.Store(int64(d))
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
