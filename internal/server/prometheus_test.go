package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)
	promHelpRE   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	promTypeRE   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promLabelRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// lintPrometheus parses a text-format exposition strictly: every sample
// belongs to a declared family, HELP/TYPE appear exactly once per family
// and before its samples, label syntax is well-formed, no name+labelset
// repeats, and counters are finite and non-negative. It returns the
// sampled families.
func lintPrometheus(t *testing.T, body io.Reader) map[string]string {
	t.Helper()
	types := map[string]string{} // family -> counter|gauge|...
	helped := map[string]bool{}  // family -> HELP seen
	sampled := map[string]bool{} // name+labels -> seen
	families := map[string]string{}
	sc := bufio.NewScanner(body)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		switch {
		case text == "":
			continue
		case strings.HasPrefix(text, "# HELP "):
			m := promHelpRE.FindStringSubmatch(text)
			if m == nil {
				t.Fatalf("line %d: malformed HELP: %q", line, text)
			}
			if helped[m[1]] {
				t.Fatalf("line %d: duplicate HELP for %s", line, m[1])
			}
			helped[m[1]] = true
		case strings.HasPrefix(text, "# TYPE "):
			m := promTypeRE.FindStringSubmatch(text)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", line, text)
			}
			if _, dup := types[m[1]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", line, m[1])
			}
			types[m[1]] = m[2]
		case strings.HasPrefix(text, "#"):
			continue // comment
		default:
			m := promSampleRE.FindStringSubmatch(text)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", line, text)
			}
			name, labels, value := m[1], m[2], m[3]
			typ, declared := types[name]
			if !declared || !helped[name] {
				t.Fatalf("line %d: sample %s before its HELP/TYPE", line, name)
			}
			if labels != "" {
				for _, pair := range strings.Split(strings.Trim(labels, "{}"), ",") {
					if !promLabelRE.MatchString(pair) {
						t.Fatalf("line %d: malformed label %q in %q", line, pair, text)
					}
				}
			}
			key := name + labels
			if sampled[key] {
				t.Fatalf("line %d: duplicate sample %s", line, key)
			}
			sampled[key] = true
			if typ == "counter" {
				v, err := strconv.ParseFloat(value, 64)
				if err != nil || v < 0 {
					t.Fatalf("line %d: counter %s = %q", line, name, value)
				}
			}
			families[name] = typ
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families
}

// TestPrometheusEndpointLints: a loaded server's ?format=prometheus
// output passes a strict exposition-format lint and carries the full
// stable name vocabulary — core, WAL, pool and group-commit families,
// and every shed reason.
func TestPrometheusEndpointLints(t *testing.T) {
	cfg := Config{
		Tenants: map[string]TenantConfig{
			"alpha": fixedTenant(6, 0.7),
			"beta":  fixedTenant(4, 0.5),
		},
		DataDir:              t.TempDir(),
		WALGroupCommitWindow: 200 * time.Microsecond,
		ADPaRWorkers:         2,
	}
	s, hs := newTestServer(t, cfg)
	tn, _ := s.Tenant("alpha")
	driveMutations(t, tn, 20, 11)
	if _, err := tn.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	resp, err := hs.Client().Get(hs.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families := lintPrometheus(t, strings.NewReader(string(body)))

	for _, reason := range []string{"queue_full", "deadline", "closed", "wal_broken"} {
		if want := `stratrec_sheds_total{tenant="alpha",reason="` + reason + `"} `; !strings.Contains(string(body), want) {
			t.Errorf("shed reason %s missing from exposition:\n%s", reason, grepLines(string(body), "stratrec_sheds_total"))
		}
	}
	for _, want := range []string{
		"stratrec_uptime_seconds", "stratrec_tenant_count",
		"stratrec_submits_total", "stratrec_revokes_total",
		"stratrec_sheds_total", "stratrec_queue_depth", "stratrec_epoch",
		"stratrec_wal_appends_total", "stratrec_wal_syncs_total",
		"stratrec_wal_checkpoints_total",
		"stratrec_adpar_pool_workers",
		"stratrec_group_commit_rounds_total",
		"stratrec_group_commit_direct_syncs_total",
	} {
		if _, ok := families[want]; !ok {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	for name := range families {
		if !strings.HasPrefix(name, "stratrec_") {
			t.Errorf("family %s outside the stratrec_ namespace", name)
		}
	}
}

// TestMetricsFormatSwitch: the default stays expvar JSON, explicit
// format names select, and unknown formats answer 400 with the error
// envelope.
func TestMetricsFormatSwitch(t *testing.T) {
	cfg := Config{Tenants: map[string]TenantConfig{"alpha": fixedTenant(4, 0.7)}}
	_, hs := newTestServer(t, cfg)
	client := hs.Client()

	for _, url := range []string{"/metrics", "/metrics?format=expvar", "/metrics?format=json"} {
		resp, err := client.Get(hs.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
			t.Fatalf("%s: status %d, type %q", url, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if !strings.Contains(string(body), `"tenants"`) {
			t.Fatalf("%s: expvar body missing tenants: %.120s", url, body)
		}
	}

	resp, err := client.Get(hs.URL + "/metrics?format=yaml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", resp.StatusCode)
	}
}

// TestPrometheusTracksRegistry: runtime-created tenants appear in the
// next scrape, drained tenants disappear.
func TestPrometheusTracksRegistry(t *testing.T) {
	cfg := Config{Tenants: map[string]TenantConfig{"alpha": fixedTenant(4, 0.7)}}
	s, hs := newTestServer(t, cfg)

	scrape := func() string {
		t.Helper()
		resp, err := hs.Client().Get(hs.URL + "/metrics?format=prometheus")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	if body := scrape(); strings.Contains(body, `tenant="beta"`) {
		t.Fatal("beta present before creation")
	}
	if err := s.CreateTenant("beta", fixedTenant(4, 0.6)); err != nil {
		t.Fatal(err)
	}
	tn, _ := s.Tenant("beta")
	if _, err := tn.Submit(context.Background(), submitReqN("b1", 0.3)); err != nil {
		t.Fatal(err)
	}
	body := scrape()
	if !strings.Contains(body, `stratrec_submits_total{tenant="beta"} 1`) {
		t.Fatalf("beta submit not scraped:\n%s", grepLines(body, "beta"))
	}
	if _, err := s.DrainTenant("beta"); err != nil {
		t.Fatal(err)
	}
	if body := scrape(); strings.Contains(body, `tenant="beta"`) {
		t.Fatal("drained beta still scraped")
	}
}

// TestPrometheusLiveScrape is the CI parse-lint gate for a real running
// server (not an httptest one): when STRATREC_LIVE_METRICS_URL names a
// live /metrics?format=prometheus endpoint, scrape it and hold it to the
// same strict exposition lint and namespace rule as the in-process
// tests. Skipped when the env var is unset, so `go test ./...` stays
// hermetic.
func TestPrometheusLiveScrape(t *testing.T) {
	url := os.Getenv("STRATREC_LIVE_METRICS_URL")
	if url == "" {
		t.Skip("STRATREC_LIVE_METRICS_URL not set; live-scrape lint runs in CI")
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("live scrape content type %q", ct)
	}
	families := lintPrometheus(t, resp.Body)
	if len(families) == 0 {
		t.Fatal("live scrape exposed no metric families")
	}
	for name := range families {
		if !strings.HasPrefix(name, "stratrec_") {
			t.Errorf("live family %s outside the stratrec_ namespace", name)
		}
	}
}

// grepLines filters body to lines containing needle, for readable fails.
func grepLines(body, needle string) string {
	var sb strings.Builder
	for _, l := range strings.Split(body, "\n") {
		if strings.Contains(l, needle) {
			fmt.Fprintln(&sb, l)
		}
	}
	return sb.String()
}

// TestPromEscaping: label values with quotes, backslashes and newlines
// render as the exposition format's escape sequences.
func TestPromEscaping(t *testing.T) {
	var sb strings.Builder
	p := &promWriter{w: &sb}
	p.sample("m", [][2]string{{"tenant", "a\"b\\c\nd"}}, 1)
	want := `m{tenant="a\"b\\c\nd"} 1` + "\n"
	if sb.String() != want {
		t.Fatalf("escaped sample = %q, want %q", sb.String(), want)
	}
}
