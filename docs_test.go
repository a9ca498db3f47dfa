package bench

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents whose references are checked. stratbench/README.md is
// the benchmark's own, and ROADMAP.md and CHANGES.md are history: they
// name files and tests that existed when they were written.
var checkedDocs = []string{
	"README.md",
	"TESTING.md",
	"internal/adpar/README.md",
	"internal/wal/README.md",
	".claude/skills/verify/SKILL.md",
}

var (
	fenceRe    = regexp.MustCompile("(?ms)^```.*?^```")
	spanRe     = regexp.MustCompile("`([^`]+)`")
	testNameRe = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*\*?`)
	declRe     = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	fuzzFlagRe = regexp.MustCompile(`-fuzz\s+(?:'([^']*)'|"([^"]*)"|(\S+))`)
	pkgArgRe   = regexp.MustCompile(`(?:^|\s)\./([\w./-]+)`)
	mdNameRe   = regexp.MustCompile(`[\w./-]*\.md\b`)
)

// codeUnits splits a markdown document into the code a reader would
// copy: each inline code span, and each line of a fenced block.
func codeUnits(doc string) []string {
	var units []string
	for _, fence := range fenceRe.FindAllString(doc, -1) {
		units = append(units, strings.Split(fence, "\n")...)
	}
	for _, m := range spanRe.FindAllStringSubmatch(fenceRe.ReplaceAllString(doc, ""), -1) {
		units = append(units, m[1])
	}
	return units
}

// repoPath returns the file path tok names, false when tok is not a
// repository path: one with a '/' that starts with an entry of one of
// roots (an absolute path or a URL path starts with none).
func repoPath(tok string, roots ...string) (string, bool) {
	tok = strings.Trim(tok, `'"`)
	tok = strings.TrimRight(tok, ",;.)")
	tok = strings.TrimPrefix(tok, "./")
	tok = strings.TrimSuffix(tok, "/...")
	tok = strings.TrimSuffix(tok, "/")
	if i := strings.Index(tok, ":"); i >= 0 {
		tok = tok[:i] // file:line
	}
	first, _, ok := strings.Cut(tok, "/")
	if !ok || first == "" || strings.ContainsAny(tok, "<>{}$") {
		return "", false
	}
	for _, root := range roots {
		if _, err := os.Stat(filepath.Join(root, first)); err == nil {
			return filepath.Join(root, tok), true
		}
	}
	return "", false
}

func exists(path string) bool {
	if strings.ContainsAny(path, "*?[") {
		m, _ := filepath.Glob(path)
		return len(m) > 0
	}
	_, err := os.Stat(path)
	return err == nil
}

// declaredTests maps each package directory to the Test, Fuzz,
// Benchmark and Example functions its _test.go files declare.
func declaredTests(t *testing.T) map[string][]string {
	t.Helper()
	decls := make(map[string][]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declRe.FindAllStringSubmatch(string(src), -1) {
			decls[filepath.Dir(path)] = append(decls[filepath.Dir(path)], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// TestDocReferences holds the checked documents to the tree: every
// repository path they put in code exists, every test they name is
// declared (a trailing '*' names a prefix), and every -fuzz pattern
// they give matches exactly one fuzz target of its package.
func TestDocReferences(t *testing.T) {
	decls := declaredTests(t)
	declared := make(map[string]bool)
	for _, names := range decls {
		for _, name := range names {
			declared[name] = true
		}
	}
	isDeclared := func(name string) bool {
		prefix, wild := strings.CutSuffix(name, "*")
		if !wild {
			return declared[name]
		}
		for d := range declared {
			if strings.HasPrefix(d, prefix) {
				return true
			}
		}
		return false
	}
	for _, doc := range checkedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, unit := range codeUnits(string(src)) {
			for _, tok := range strings.Fields(unit) {
				if path, ok := repoPath(tok, ".", filepath.Dir(doc)); ok && !exists(path) {
					t.Errorf("%s: %q names a path that does not exist", doc, tok)
				}
			}
			for _, m := range fuzzFlagRe.FindAllStringSubmatch(unit, -1) {
				pattern := m[1] + m[2] + m[3]
				pkg := pkgArgRe.FindStringSubmatch(unit)
				re, err := regexp.Compile(pattern)
				if pkg == nil || err != nil {
					t.Errorf("%s: cannot read the package or pattern of %q", doc, unit)
					continue
				}
				var matched []string
				for _, name := range decls[filepath.Clean(pkg[1])] {
					if strings.HasPrefix(name, "Fuzz") && re.MatchString(name) {
						matched = append(matched, name)
					}
				}
				if len(matched) != 1 {
					t.Errorf("%s: -fuzz %s matches %v in ./%s, want exactly one target", doc, pattern, matched, pkg[1])
				}
			}
		}
		for _, name := range testNameRe.FindAllString(string(src), -1) {
			if !isDeclared(name) {
				t.Errorf("%s: %s is not declared in any _test.go file", doc, name)
			}
		}
	}
}

// TestGoCommentsCiteExistingDocs: a comment that names a markdown file
// names one that exists, at the repository root or beside the comment.
func TestGoCommentsCiteExistingDocs(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range mdNameRe.FindAllString(c.Text, -1) {
					if !exists(name) && !exists(filepath.Join(filepath.Dir(path), name)) {
						t.Errorf("%s: comment cites %s, which does not exist", fset.Position(c.Pos()), name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadmeLayoutTable: README's layout table names every package
// directory under cmd/ and internal/, and stratbench.
func TestReadmeLayoutTable(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, layout, ok := strings.Cut(string(src), "## Repository layout")
	if !ok {
		t.Fatal("README.md has no Repository layout section")
	}
	layout, _, _ = strings.Cut(layout, "\n## ")
	listed := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(layout, -1) {
		listed[m[1]] = true
	}
	want := map[string]bool{"stratbench": true}
	for _, top := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				want[filepath.ToSlash(filepath.Dir(path))] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for dir := range want {
		if !listed[dir] {
			t.Errorf("README.md's layout table does not name %s", dir)
		}
	}
}
