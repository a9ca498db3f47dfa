package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerSnapshotImmut enforces the immutability of published
// stream.View and stream.Snapshot memory.
var AnalyzerSnapshotImmut = &Analyzer{
	Name: "snapshotimmut",
	Doc: `snapshotimmut: memory reachable from a stream.View or stream.Snapshot is never written.

The event loop publishes *stream.View through an atomic pointer and
readers dereference it lock-free, with no happens-before edge beyond
the publish. A View shares the manager's pool trie: its nodes, the
requests' admission records and their Strategies slices, which every
Snapshot built from it shares in turn. The only thing that makes that
sound is that nobody writes published memory after construction — a
contract the race detector can only catch if a chaos run happens to
interleave the write with a read.

This analyzer proves it at vet time, in the stream and server packages:
any field store, slice/map element write, or increment whose base chain
reaches published memory — a View, a Snapshot, a trie node, an
admission record or a RequestState's shared Strategies slice, or a
local alias carrying a reference (slice, map, pointer) derived from
one — is a diagnostic. Writes laundered through helpers are caught by a
parameter-mutation fact: passing published memory to a function that
writes through that parameter (at any helper depth) flags the call. The
sanctioned writers are the trie's path-copy constructors ((*node).put
and (*node).remove, which edit only nodes no View has seen yet) and
(*stream.View).Snapshot, which fills the Snapshot it returns. Rebinding
a variable (snap = other) and mutating a struct *value* copied out of
published memory stay legal, as long as the write does not reach
through the copy's shared Strategies slice; so does building a fresh
&Snapshot{...} literal.`,
	Run: runSnapshotImmut,
}

func runSnapshotImmut(pass *Pass) error {
	if !pkgOneOf(pass, "stream", "server") {
		return nil
	}
	g := buildCallGraph(pass)
	mut := computeParamMutators(pass, g)
	for _, n := range g.nodes {
		if isPublishedConstructor(n.fn) {
			continue
		}
		checkSnapshotImmut(pass, g, n, mut)
	}
	return nil
}

// isPublishedConstructor matches the allowlisted writers: the trie's
// path-copy constructors and (*stream.View).Snapshot.
func isPublishedConstructor(fn *types.Func) bool {
	return methodOn(fn, "put", "node", "stream") ||
		methodOn(fn, "remove", "node", "stream") ||
		methodOn(fn, "Snapshot", "View", "stream")
}

// publishedTypes describes the stream types whose memory a published
// View reaches, by type name.
var publishedTypes = map[string]string{
	"View":      "stream.View",
	"Snapshot":  "stream.Snapshot",
	"node":      "stream trie node",
	"admission": "stream admission record",
}

// streamTypeName returns the name of t, or of the type t points to, when
// it is declared in a package named stream (matched by path base so the
// testdata mimics behave like the real package), and "" otherwise.
func streamTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || pathBase(named.Obj().Pkg().Path()) != "stream" {
		return ""
	}
	return named.Obj().Name()
}

// publishedExpr describes e when its value is published memory: an
// expression of a published type, or a RequestState's Strategies field,
// which always aliases an admission record's slice.
func publishedExpr(pass *Pass, e ast.Expr) string {
	if tv, ok := pass.Info.Types[e]; ok {
		if d := publishedTypes[streamTypeName(tv.Type)]; d != "" {
			return d
		}
	}
	if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.Name == "Strategies" {
		if tv, ok := pass.Info.Types[sel.X]; ok && streamTypeName(tv.Type) == "RequestState" {
			return "shared RequestState.Strategies slice"
		}
	}
	return ""
}

func checkSnapshotImmut(pass *Pass, g *callGraph, n *cgNode, mut map[*cgNode]map[int]bool) {
	taint := make(map[types.Object]string)
	report := func(e ast.Expr, what string) {
		pass.Reportf(e.Pos(),
			"write to memory reachable from a %s in %s: published views and snapshots are read lock-free and must never be mutated (only the trie's path-copy constructors and (*stream.View).Snapshot write them)",
			what, n.decl.Name.Name)
	}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if what := snapReachable(pass, taint, lhs, true); what != "" {
					report(lhs, what)
				}
			}
			updateTaint(pass, taint, x)
		case *ast.IncDecStmt:
			if what := snapReachable(pass, taint, x.X, true); what != "" {
				report(x.X, what)
			}
		case *ast.CallExpr:
			checkSnapshotEscape(pass, g, n, taint, x, mut)
		}
		return true
	})
}

// updateTaint tracks local aliases: a variable assigned a reference
// (slice, map, pointer) derived from published memory inherits the
// taint; reassigning it to something else clears it. Struct value
// copies (rs := snap.Requests[i]) carry no taint — the copy is the
// caller's to mutate, except through its shared Strategies slice.
func updateTaint(pass *Pass, taint map[types.Object]string, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		if what := derivesSnapshotRef(pass, taint, as.Rhs[i]); what != "" {
			taint[obj] = what
		} else {
			delete(taint, obj)
		}
	}
}

// derivesSnapshotRef describes the published memory rhs evaluates a
// reference into: a chain touching published memory (or a tainted
// alias) whose own type is a pointer, slice, or map — or the address of
// such a chain. It returns "" for anything else.
func derivesSnapshotRef(pass *Pass, taint map[types.Object]string, rhs ast.Expr) string {
	e := ast.Unparen(rhs)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
		return snapReachable(pass, taint, u.X, false)
	}
	what := snapReachable(pass, taint, e, false)
	if what == "" {
		return ""
	}
	tv, ok := pass.Info.Types[e]
	if !ok {
		return ""
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return what
	}
	return ""
}

// snapReachable walks expr's selector/index/deref chain toward its
// root and describes the published memory it reaches ("" when none).
// With write=true at least one step is required (rebinding the variable
// itself is not a write into published memory); with write=false the
// expression itself counts too.
func snapReachable(pass *Pass, taint map[types.Object]string, expr ast.Expr, write bool) string {
	e := ast.Unparen(expr)
	for peels := 0; ; peels++ {
		if peels > 0 || !write {
			if what := publishedExpr(pass, e); what != "" {
				return what
			}
			if id, ok := e.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && taint[obj] != "" {
					return taint[obj]
				}
			}
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			// A package-qualified name is a root, not a field chain.
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := pass.Info.Uses[id].(*types.PkgName); isPkg {
					return ""
				}
			}
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		default:
			return ""
		}
	}
}

// chainRootObj returns the object of the identifier at the root of
// expr's selector/index/deref chain (nil when the root is not a plain
// identifier), with the number of steps taken.
func chainRootObj(pass *Pass, expr ast.Expr) (types.Object, int) {
	e := ast.Unparen(expr)
	peels := 0
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e, peels = ast.Unparen(x.X), peels+1
		case *ast.IndexExpr:
			e, peels = ast.Unparen(x.X), peels+1
		case *ast.StarExpr:
			e, peels = ast.Unparen(x.X), peels+1
		case *ast.UnaryExpr:
			if x.Op.String() != "&" {
				return nil, peels
			}
			e = ast.Unparen(x.X)
		case *ast.Ident:
			return pass.Info.Uses[e.(*ast.Ident)], peels
		default:
			return nil, peels
		}
	}
}

// computeParamMutators finds, for every in-package function, the
// parameter slots (receiver is slot 0 when present) the function may
// write through — directly, or by forwarding the parameter to another
// mutating function. This is the fact that catches writes laundered
// through helpers whose signatures never mention Snapshot.
func computeParamMutators(pass *Pass, g *callGraph) map[*cgNode]map[int]bool {
	slots := make(map[*cgNode]map[types.Object]int, len(g.nodes))
	mut := make(map[*cgNode]map[int]bool, len(g.nodes))
	for _, n := range g.nodes {
		m := make(map[types.Object]int)
		i := 0
		addField := func(fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				if len(f.Names) == 0 {
					i++
					continue
				}
				for _, name := range f.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						m[obj] = i
					}
					i++
				}
			}
		}
		addField(n.decl.Recv)
		addField(n.decl.Type.Params)
		slots[n] = m
		mut[n] = make(map[int]bool)
	}

	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			n := n
			ast.Inspect(n.decl.Body, func(node ast.Node) bool {
				mark := func(e ast.Expr, needPeel bool) {
					obj, peels := chainRootObj(pass, e)
					if obj == nil || (needPeel && peels == 0) {
						return
					}
					if slot, ok := slots[n][obj]; ok && !mut[n][slot] {
						mut[n][slot] = true
						changed = true
					}
				}
				switch x := node.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						mark(lhs, true)
					}
				case *ast.IncDecStmt:
					mark(x.X, true)
				case *ast.CallExpr:
					callee := g.node(calleeOf(pass.Info, x))
					if callee == nil || callee == n {
						return true
					}
					for slot, arg := range callArgs(pass, callee, x) {
						if !mut[callee][slot] {
							continue
						}
						mark(arg, false)
					}
				}
				return true
			})
		}
	}
	return mut
}

// callArgs aligns a call's argument expressions with the callee's
// parameter slots (receiver first, variadic tail collapsed onto the
// last slot).
func callArgs(pass *Pass, callee *cgNode, call *ast.CallExpr) map[int]ast.Expr {
	out := make(map[int]ast.Expr)
	slot := 0
	if callee.decl.Recv != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if pass.Info.Selections[sel] != nil {
				out[0] = sel.X
			}
		}
		slot = 1
	}
	sig, ok := callee.fn.Type().(*types.Signature)
	if !ok {
		return out
	}
	nparams := sig.Params().Len()
	for i, arg := range call.Args {
		p := i
		if p >= nparams {
			p = nparams - 1
		}
		if p < 0 {
			break
		}
		out[slot+p] = arg
	}
	return out
}

// checkSnapshotEscape flags a call that hands published memory to a
// function that writes through the receiving parameter.
func checkSnapshotEscape(pass *Pass, g *callGraph, n *cgNode, taint map[types.Object]string, call *ast.CallExpr, mut map[*cgNode]map[int]bool) {
	callee := g.node(calleeOf(pass.Info, call))
	if callee == nil || callee == n || isPublishedConstructor(callee.fn) {
		return
	}
	for slot, arg := range callArgs(pass, callee, call) {
		if !mut[callee][slot] {
			continue
		}
		e := ast.Unparen(arg)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
			e = u.X
		}
		if what := snapReachable(pass, taint, e, false); what != "" {
			pass.Reportf(arg.Pos(),
				"call passes memory reachable from a %s to %s, which writes through it (published views and snapshots are read lock-free and must never be mutated)",
				what, callee.fn.Name())
		}
	}
}
