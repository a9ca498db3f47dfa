package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"stratrec/internal/batch"
	"stratrec/internal/stream"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// fuzzTarget lazily builds one small server shared by all fuzz iterations
// in a worker process.
var fuzzTarget struct {
	once sync.Once
	s    *Server
	err  error
}

func fuzzServer() (*Server, error) {
	fuzzTarget.once.Do(func() {
		gen := synth.DefaultConfig(synth.Uniform)
		rng := rand.New(rand.NewSource(99))
		set := gen.Strategies(rng, 8)
		fuzzTarget.s, fuzzTarget.err = New(Config{Tenants: map[string]TenantConfig{
			"fuzz": {
				Set:       set,
				Models:    gen.Models(rng, set),
				Mode:      workforce.MaxCase,
				Objective: batch.Throughput,
				InitialW:  0.7,
			},
		}})
	})
	return fuzzTarget.s, fuzzTarget.err
}

// FuzzSubmitRequest throws arbitrary bytes at the submit endpoint's JSON
// decoding and domain validation. The server must never panic, never
// return a status outside the documented set, and always produce a valid
// JSON body; successful submissions are revoked so the pool stays small
// across iterations.
func FuzzSubmitRequest(f *testing.F) {
	f.Add([]byte(`{"id":"d1","quality":0.4,"cost":0.6,"latency":0.5,"k":2}`))
	f.Add([]byte(`{"id":"","k":-3}`))
	f.Add([]byte(`{"id":"dup","quality":1e308,"cost":-1}`))
	f.Add([]byte(`{"id":"nan","quality":null,"k":0}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"id":"d2","quality":"0.4"}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	// Path-hostile IDs: dot segments must be rejected (unaddressable
	// revoke URLs); slashes and spaces must round-trip via escaping.
	f.Add([]byte(`{"id":"."}`))
	f.Add([]byte(`{"id":".."}`))
	f.Add([]byte(`{"id":"a/b c","quality":0.2,"cost":0.9,"latency":0.9}`))
	// An ID one byte over stream.MaxIDLen is refused with 400.
	f.Add([]byte(`{"id":"` + strings.Repeat("x", stream.MaxIDLen+1) + `","quality":0.2,"cost":0.9,"latency":0.9}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := fuzzServer()
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/tenants/fuzz/requests", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("invalid JSON response %q for body %q", rec.Body.Bytes(), body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var resp SubmitResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("undecodable 200 body %q: %v", rec.Body.Bytes(), err)
		}
		if resp.ID == "" {
			t.Fatalf("200 with empty ID for body %q", body)
		}
		if len(resp.ID) > stream.MaxIDLen {
			t.Fatalf("200 for a %d-byte ID", len(resp.ID))
		}
		// Keep the pool bounded: revoke what we just admitted. The ID is
		// attacker-controlled (any non-empty string of at most MaxIDLen
		// bytes is admissible), so it must be path-escaped or
		// slashes/spaces in a fuzzed ID would 404 or panic request
		// construction and report a false crasher.
		del := httptest.NewRequest(http.MethodDelete, "/v1/tenants/fuzz/requests/"+url.PathEscape(resp.ID), nil)
		delRec := httptest.NewRecorder()
		s.Handler().ServeHTTP(delRec, del)
		if delRec.Code != http.StatusOK {
			t.Fatalf("revoking just-admitted %q: status %d", resp.ID, delRec.Code)
		}
	})
}

// FuzzAvailabilityRequest fuzzes the availability endpoint the same way:
// arbitrary bytes must yield 200 (valid w), 400, or nothing else, and the
// tenant must keep serving afterwards.
func FuzzAvailabilityRequest(f *testing.F) {
	f.Add([]byte(`{"workforce":0.5}`))
	f.Add([]byte(`{"workforce":-1}`))
	f.Add([]byte(`{"workforce":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`"0.5"`))

	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := fuzzServer()
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPut, "/v1/tenants/fuzz/availability", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("invalid JSON response for body %q", body)
		}
		// The tenant survived: a plan read still answers.
		plan := httptest.NewRequest(http.MethodGet, "/v1/tenants/fuzz/plan", nil)
		planRec := httptest.NewRecorder()
		s.Handler().ServeHTTP(planRec, plan)
		if planRec.Code != http.StatusOK {
			t.Fatalf("plan read after availability fuzz: status %d", planRec.Code)
		}
	})
}

// TestFuzzSeedsPass replays the seed corpus as a plain test so `go test`
// (without -fuzz) still exercises the decode paths.
func TestFuzzSeedsPass(t *testing.T) {
	s, err := fuzzServer()
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{
		`{"id":"seed-a","quality":0.4,"cost":0.6,"latency":0.5,"k":2}`,
		`{"id":""}`,
		`garbage`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/tenants/fuzz/requests", bytes.NewReader([]byte(body)))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("seed %d: status %d", i, rec.Code)
		}
		if rec.Code == http.StatusOK {
			del := httptest.NewRequest(http.MethodDelete, "/v1/tenants/fuzz/requests/seed-a", nil)
			delRec := httptest.NewRecorder()
			s.Handler().ServeHTTP(delRec, del)
		}
	}
}
