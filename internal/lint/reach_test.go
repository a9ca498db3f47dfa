package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Module-wide reachability. Every non-test function must be reached
// from a program — a main, an init function or a package-level var
// initializer — or from a Test, Fuzz, Benchmark or Example function.
// What no program reaches but a test does is logged: the code only
// tests keep alive. What nothing reaches fails the check.
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

// reachReport is one run's verdict on the non-test functions.
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

// describe renders n as "file:line: pkg.Func (N lines)", file relative
// to root.
func (r reachReport) describe(root string, n *cgNode) string {
	pos := r.fset.Position(n.decl.Pos())
	file, err := filepath.Rel(root, pos.Filename)
	if err != nil {
		file = pos.Filename
	}
	return fmt.Sprintf("%s:%d: %s (%d lines)", file, pos.Line, r.name(n), r.lines(n))
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
}

// TestReachability holds the module to the rule above and logs the
// functions only tests reach, with their total, as the backlog of code
// to delete or to put to use.
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
	lines := 0
	for _, n := range r.testOnly {
		t.Log(r.describe(root, n))
		lines += r.lines(n)
	}
	t.Logf("%d functions (%d lines) are reached only from tests", len(r.testOnly), lines)
	for _, n := range r.dead {
		t.Errorf("%s is reached by no main and no test", r.describe(root, n))
	}
}
