package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Sabotage suite: each case copies a clean fixture into a scratch
// module, injects one violation, and asserts the analyzer catches it.
// The clean fixtures prove the analyzers are quiet on good code; these
// prove the quiet is not because the analyzers are asleep.

// copyFixtureModule copies go.mod and the named testdata subtrees into
// a fresh module root and returns it.
func copyFixtureModule(t *testing.T, subdirs ...string) string {
	t.Helper()
	root := t.TempDir()
	mod, err := os.ReadFile(filepath.Join("testdata", "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "go.mod"), mod, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sub := range subdirs {
		err := filepath.Walk(filepath.Join("testdata", sub), func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			rel, err := filepath.Rel("testdata", path)
			if err != nil {
				return err
			}
			dst := filepath.Join(root, rel)
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(dst, data, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func appendToFile(t *testing.T, path, code string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(code); err != nil {
		t.Fatal(err)
	}
}

func runOn(t *testing.T, dir, pkgPath string, analyzer *Analyzer) []Diagnostic {
	t.Helper()
	targets, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range targets {
		if target.PkgPath == pkgPath {
			diags, err := Run(target, []*Analyzer{analyzer})
			if err != nil {
				t.Fatal(err)
			}
			return diags
		}
	}
	t.Fatalf("package %q not loaded from %s", pkgPath, dir)
	return nil
}

func TestSabotage(t *testing.T) {
	cases := []struct {
		name     string
		analyzer *Analyzer
		subdirs  []string
		pkg      string
		file     string // file to sabotage, relative to the module root
		code     string
		want     *regexp.Regexp
	}{
		{
			name:     "loopsafety/laundered-mutation",
			analyzer: AnalyzerLoopSafety,
			subdirs:  []string{"loopsafetyclean", "loopsafety/stream"},
			pkg:      "lintfix/loopsafetyclean/server",
			file:     "loopsafetyclean/server/good.go",
			code: `
func (t *tenant) handleRevoke(id string) error { return t.revokeVia(id) }

func (t *tenant) revokeVia(id string) error { return t.mgr.Revoke(id) }
`,
			want: regexp.MustCompile(`stream\.Manager\.Revoke called from revokeVia.*reached from handleRevoke`),
		},
		{
			name:     "ackorder/ack-before-laundered-append",
			analyzer: AnalyzerAckOrder,
			subdirs:  []string{"ackorderclean", "ackorder/wal"},
			pkg:      "lintfix/ackorderclean/server",
			file:     "ackorderclean/server/good.go",
			code: `
func (t *tenant) ackEarly(o op) {
	o.reply <- opResult{}
	_, _ = t.logMutation(o)
}
`,
			want: regexp.MustCompile(`WAL append after an opResult send in ackEarly.*append via logMutation`),
		},
		{
			name:     "snapshotimmut/post-publish-store",
			analyzer: AnalyzerSnapshotImmut,
			subdirs:  []string{"snapshotimmutclean"},
			pkg:      "lintfix/snapshotimmutclean/server",
			file:     "snapshotimmutclean/server/ok.go",
			code: `
func (t *tenant) poison() {
	snap := t.mgr.Snapshot()
	snap.Epoch++
}
`,
			want: regexp.MustCompile(`write to memory reachable from a stream\.Snapshot in poison`),
		},
		{
			name:     "snapshotimmut/published-node-write",
			analyzer: AnalyzerSnapshotImmut,
			subdirs:  []string{"snapshotimmutclean"},
			pkg:      "lintfix/snapshotimmutclean/stream",
			file:     "snapshotimmutclean/stream/stream.go",
			code: `
func (m *Manager) flip(v *View) {
	n := v.pool
	n.slots[0].serving = true
}
`,
			want: regexp.MustCompile(`write to memory reachable from a stream trie node in flip`),
		},
		{
			name:     "walexhaustive/dropped-arm",
			analyzer: AnalyzerWALExhaustive,
			subdirs:  []string{"walexhaustiveclean"},
			pkg:      "lintfix/walexhaustiveclean/wal",
			file:     "walexhaustiveclean/wal/wal.go",
			code: `
func kindByte(kind string) byte {
	switch kind {
	case KindSubmit:
		return 's'
	case KindRevoke:
		return 'r'
	}
	return 0
}
`,
			want: regexp.MustCompile(`WAL kind switch is not exhaustive: missing KindAvailability`),
		},
		{
			name:     "allocbound/annotated-escape",
			analyzer: AnalyzerAllocBound,
			subdirs:  []string{"allocboundclean"},
			pkg:      "lintfix/allocboundclean/server",
			file:     "allocboundclean/server/hot.go",
			code: `
//lint:allocfree
func boxed(v int) *int {
	return &v
}
`,
			want: regexp.MustCompile(`boxed is annotated //lint:allocfree but the compiler reports "moved to heap: v"`),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := copyFixtureModule(t, c.subdirs...)

			// The untouched copy must be quiet first: a sabotage catch
			// means nothing if the clean baseline already fires.
			if diags := runOn(t, root, c.pkg, c.analyzer); len(diags) != 0 {
				t.Fatalf("clean copy of %s not clean: %v", c.pkg, diags)
			}

			appendToFile(t, filepath.Join(root, c.file), c.code)
			diags := runOn(t, root, c.pkg, c.analyzer)
			found := false
			var got []string
			for _, d := range diags {
				got = append(got, d.String())
				if c.want.MatchString(d.Message) {
					found = true
				}
			}
			if !found {
				t.Errorf("sabotage not flagged: want match for %q, got:\n%s", c.want, strings.Join(got, "\n"))
			}
		})
	}
}
