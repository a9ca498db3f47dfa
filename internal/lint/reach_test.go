package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Module-wide reachability. Every non-test function must be reached
// from a program — a main, an init function or a package-level var
// initializer. Every package is internal to the module, so a function
// only tests reach is dead to every program: it fails the check unless
// reachAllowList names it with a reason. A reference oracle or an
// accessor only tests compare against belongs in a _test.go file of its
// package, where in-package tests may declare methods too.
//
// The rules over-approximate, so every function the check names is
// safe to act on:
//   - every mention of a function is an edge, a call or a func value
//     alike;
//   - a mention of an interface method fans out to every implementing
//     method in the module (the call graph's CHA rule, which works
//     across packages because Load gives them one type universe);
//   - package initializers are roots;
//   - a method the standard library calls through one of its
//     interfaces (stdlibCalls) is reached whenever its type is: when
//     a reached function mentions the type, directly or through the
//     fields of another reached type.

// stdlibCalls reports whether the standard library may call a method
// named name through one of the interfaces the module hands its types
// to.
func stdlibCalls(name string) bool {
	switch name {
	case "Error", "Unwrap", // error, and errors.Is and errors.As
		"String",                       // fmt.Stringer
		"MarshalJSON", "UnmarshalJSON", // json.Marshaler, json.Unmarshaler
		"ServeHTTP",                                   // http.Handler
		"Enabled", "Handle", "WithAttrs", "WithGroup", // slog.Handler
		"Len", "Less", "Swap", // sort.Interface
		"Read", "Write", "Close": // io
		return true
	}
	return false
}

// reachAllowList names the non-test functions that may stay reached only
// from tests, each with the reason it stays. A key is a function name
// (pkg.Func, pkg.T.M or pkg.(*T).M) or a module-relative directory
// ending in "/", which covers every such function declared directly in
// it. An entry that no longer covers such a function fails the check, so
// the list cannot go stale.
var reachAllowList = map[string]string{
	"adpar.(*Index).SolveParallel":  "the root bench_test.go forces the parallel sweep on small catalogs with it",
	"internal/groups/":              "team formation (FormTeam, BestTeam, Partition, SkillSpread) waits for a change of its own that deletes it with its 8 tests; internal/crowd calls only Evaluate",
	"internal/knapsack/":            "the package waits for a change of its own that deletes it with its 13 tests and folds SolveDP into batch's Theorem 1 check",
	"stream.(*Manager).Alternative": "stratbench's replay installs a shared index with AttachIndex, and Alternative and Index are all that read it",
	"stream.(*Manager).Index":       "stratbench's replay installs a shared index with AttachIndex, and Alternative and Index are all that read it",
}

// reachReport classifies the non-test functions of one run.
type reachReport struct {
	fset     *token.FileSet
	dead     []*cgNode // reached by nothing
	testOnly []*cgNode // reached by a test, by no program
}

// closure is the set of functions and module types reached from one
// set of roots.
type closure struct {
	g      *callGraph
	module map[*types.Package]bool
	funcs  map[*cgNode]bool
	types  map[*types.TypeName]bool
	work   []*cgNode
}

func (c *closure) reach(n *cgNode) {
	if n != nil && !c.funcs[n] {
		c.funcs[n] = true
		c.work = append(c.work, n)
	}
}

// scan reaches every function the code under root mentions and every
// module type of its expressions.
func (c *closure) scan(root ast.Node, info *types.Info) {
	ast.Inspect(root, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				for _, n := range c.g.resolve(fn) {
					c.reach(n)
				}
			}
		}
		if e, ok := x.(ast.Expr); ok {
			if tv, ok := info.Types[e]; ok {
				c.markType(tv.Type)
			}
		}
		return true
	})
}

// markType reaches the module types t is built from and, for each, the
// methods the standard library may call on it.
func (c *closure) markType(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			c.markType(t.TypeArgs().At(i))
		}
		obj := t.Obj()
		if !c.module[obj.Pkg()] || c.types[obj] {
			return
		}
		c.types[obj] = true
		ms := types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < ms.Len(); i++ {
			if fn, ok := ms.At(i).Obj().(*types.Func); ok && stdlibCalls(fn.Name()) {
				c.reach(c.g.node(fn))
			}
		}
		c.markType(t.Underlying())
	case *types.Pointer:
		c.markType(t.Elem())
	case *types.Slice:
		c.markType(t.Elem())
	case *types.Array:
		c.markType(t.Elem())
	case *types.Chan:
		c.markType(t.Elem())
	case *types.Map:
		c.markType(t.Key())
		c.markType(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			c.markType(t.Field(i).Type())
		}
	case *types.Signature:
		c.markType(t.Params())
		c.markType(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			c.markType(t.At(i).Type())
		}
	}
}

func (c *closure) run() {
	for len(c.work) > 0 {
		n := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		c.scan(n.decl, n.info)
	}
}

// reachModule classifies the non-test functions of targets, which must
// come from one Load with "-test": the test variants carry the _test.go
// files, and a function a variant repeats is one function (keyed by
// position).
func reachModule(targets []*Target) reachReport {
	g := newCallGraph()
	module := make(map[*types.Package]bool)
	for _, t := range targets {
		g.addFuncs(t.Files, t.Info)
		module[t.Pkg] = true
	}
	newClosure := func() *closure {
		return &closure{g: g, module: module, funcs: make(map[*cgNode]bool), types: make(map[*types.TypeName]bool)}
	}
	prog, tests := newClosure(), newClosure()
	fset := targets[0].Fset
	isTest := func(n ast.Node) bool { return strings.HasSuffix(fset.Position(n.Pos()).Filename, "_test.go") }
	var funcs []*cgNode // non-test functions, in source order
	for _, t := range targets {
		for _, f := range t.Files {
			c := prog
			if isTest(f) {
				c = tests
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						c.scan(d, t.Info)
					}
				case *ast.FuncDecl:
					fn, _ := t.Info.Defs[d.Name].(*types.Func)
					n := g.nodes[fn]
					if n == nil {
						continue
					}
					if c == prog {
						funcs = append(funcs, n)
					}
					name := d.Name.Name
					if d.Recv == nil && (name == "init" ||
						c == prog && name == "main" && t.Pkg.Name() == "main" ||
						c == tests && hasTestPrefix(name)) {
						c.reach(n)
					}
				}
			}
		}
	}
	prog.run()
	tests.run()

	keys := func(c *closure) map[token.Position]bool {
		m := make(map[token.Position]bool, len(c.funcs))
		for n := range c.funcs {
			m[fset.Position(n.decl.Pos())] = true
		}
		return m
	}
	inProg, inTests := keys(prog), keys(tests)
	r := reachReport{fset: fset}
	seen := make(map[token.Position]bool)
	for _, n := range funcs {
		k := fset.Position(n.decl.Pos())
		switch {
		case seen[k] || inProg[k]:
		case inTests[k]:
			r.testOnly = append(r.testOnly, n)
		default:
			r.dead = append(r.dead, n)
		}
		seen[k] = true
	}
	for _, ns := range [][]*cgNode{r.dead, r.testOnly} {
		sort.Slice(ns, func(i, j int) bool {
			a, b := fset.Position(ns[i].decl.Pos()), fset.Position(ns[j].decl.Pos())
			return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
		})
	}
	return r
}

func hasTestPrefix(name string) bool {
	for _, p := range []string{"Test", "Fuzz", "Benchmark", "Example"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// name renders n as pkg.Func, pkg.T.M or pkg.(*T).M.
func (r reachReport) name(n *cgNode) string {
	name := n.fn.Name()
	if recv := n.fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := types.TypeString(recv.Type(), func(*types.Package) string { return "" })
		if strings.HasPrefix(rt, "*") {
			rt = "(" + rt + ")"
		}
		name = rt + "." + name
	}
	return pathBase(n.fn.Pkg().Path()) + "." + name
}

// lines counts n's source lines, its doc comment included.
func (r reachReport) lines(n *cgNode) int {
	start := n.decl.Pos()
	if n.decl.Doc != nil {
		start = n.decl.Doc.Pos()
	}
	return r.fset.Position(n.decl.End()).Line - r.fset.Position(start).Line + 1
}

// file returns the file that declares n, relative to root.
func (r reachReport) file(root string, n *cgNode) string {
	name := r.fset.Position(n.decl.Pos()).Filename
	if rel, err := filepath.Rel(root, name); err == nil {
		return rel
	}
	return name
}

// describe renders n as "file:line: pkg.Func (N lines)", file relative
// to root.
func (r reachReport) describe(root string, n *cgNode) string {
	pos := r.fset.Position(n.decl.Pos())
	return fmt.Sprintf("%s:%d: %s (%d lines)", r.file(root, n), pos.Line, r.name(n), r.lines(n))
}

// allowed returns the entry of allow that covers n: its name, or else
// the directory, relative to root, that declares it.
func (r reachReport) allowed(root string, allow map[string]string, n *cgNode) (string, bool) {
	for _, key := range []string{r.name(n), filepath.ToSlash(filepath.Dir(r.file(root, n))) + "/"} {
		if _, ok := allow[key]; ok {
			return key, true
		}
	}
	return "", false
}

// verdict lists every breach of the rule: each function nothing reaches
// and each function only tests reach that allow does not cover, in
// source order, then, sorted, each entry of allow that covers no
// function only tests reach.
func (r reachReport) verdict(root string, allow map[string]string) []string {
	var out []string
	for _, n := range r.dead {
		out = append(out, r.describe(root, n)+" is reached by no main and no test")
	}
	listed := make(map[string]bool)
	for _, n := range r.testOnly {
		if key, ok := r.allowed(root, allow, n); ok {
			listed[key] = true
			continue
		}
		out = append(out, r.describe(root, n)+" is reached only from tests: delete it, move it into a _test.go file, or allow-list it with a reason")
	}
	var stale []string
	for name := range allow {
		if !listed[name] {
			stale = append(stale, "allow-list entry "+name+" names no function reached only from tests")
		}
	}
	sort.Strings(stale)
	return append(out, stale...)
}

func TestReachabilityFixture(t *testing.T) {
	targets, err := Load("testdata", []string{"-test", "./reach/..."})
	if err != nil {
		t.Fatal(err)
	}
	r := reachModule(targets)
	names := func(ns []*cgNode) string {
		var s []string
		for _, n := range ns {
			s = append(s, r.name(n))
		}
		return strings.Join(s, " ")
	}
	if got, want := names(r.dead), "reach.uncalled reach.unusedLabel.String"; got != want {
		t.Errorf("unreached = %q, want %q", got, want)
	}
	if got, want := names(r.testOnly), "reach.onlyTested"; got != want {
		t.Errorf("reached only from tests = %q, want %q", got, want)
	}

	root, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	dead := []string{
		"reach/main.go:53: reach.uncalled (2 lines) is reached by no main and no test",
		"reach/main.go:58: reach.unusedLabel.String (2 lines) is reached by no main and no test",
	}
	for _, c := range []struct {
		name  string
		allow map[string]string
		want  []string
	}{
		{"unlisted", nil, append(dead,
			"reach/main.go:50: reach.onlyTested (2 lines) is reached only from tests: delete it, move it into a _test.go file, or allow-list it with a reason")},
		{"listed", map[string]string{"reach.onlyTested": "fixture"}, dead},
		{"directory", map[string]string{"reach/": "fixture"}, dead},
		{"stale", map[string]string{"reach.onlyTested": "fixture", "reach.main": "a program reaches it", "reach.gone": "deleted", "gone/": "deleted"}, append(dead,
			"allow-list entry gone/ names no function reached only from tests",
			"allow-list entry reach.gone names no function reached only from tests",
			"allow-list entry reach.main names no function reached only from tests")},
	} {
		if got := r.verdict(root, c.allow); !slices.Equal(got, c.want) {
			t.Errorf("%s: verdict =\n%s\nwant\n%s", c.name, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
		}
	}
}

// TestReachability holds the module to the rule above. It logs each
// allow-listed function with its reason.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module with its tests")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	targets, err := Load(root, []string{"-test", "./..."})
	if err != nil {
		t.Fatal(err)
	}
	r := reachModule(targets)
	for _, n := range r.testOnly {
		if key, ok := r.allowed(root, reachAllowList, n); ok {
			t.Logf("%s, allowed: %s", r.describe(root, n), reachAllowList[key])
		}
	}
	for _, v := range r.verdict(root, reachAllowList) {
		t.Error(v)
	}
}
