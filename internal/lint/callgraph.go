package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The call graph: one package's declared functions as nodes, static
// calls between them as edges. This is what lets ackorder and
// loopsafety see through helpers — a fact observed in a callee
// propagates to its callers over these edges (facts.go), and ownership
// flows the other way, from known entry points down to the helpers
// only they reach. The module reachability test (reach_test.go) builds
// one graph over every package a Load returns, which share one type
// universe.
//
// Resolution is CHA-style over the typechecked code: direct calls
// resolve through types.Info.Uses; a call through an interface method
// fans out to every same-named method of a concrete type in the graph
// implementing that interface. Calls through plain function values get
// no edge (conservative: facts seeded by syntax are still seen where
// the function body lives; ownership never flows through a value).

// cgEdge is one call site: caller invokes callee at pos. viaGo marks a
// call issued by (or inside a function literal launched by) a go
// statement — facts still flow through it, but goroutine launches never
// confer event-loop ownership.
type cgEdge struct {
	caller *cgNode
	callee *cgNode
	pos    token.Pos
	viaGo  bool
}

// cgNode is one declared function (or method) with a body.
type cgNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	info *types.Info // the typechecker's view of decl's package
	out  []*cgEdge
	in   []*cgEdge
}

type callGraph struct {
	nodes  map[*types.Func]*cgNode
	byName map[string][]*cgNode // function name -> nodes (methods collide by design)
}

// node returns the graph node for fn, nil when fn is not a declared
// function with a body in the graph.
func (g *callGraph) node(fn *types.Func) *cgNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn]
}

// buildCallGraph constructs the package call graph for a pass.
func buildCallGraph(pass *Pass) *callGraph {
	g := newCallGraph()
	g.addFuncs(pass.Files, pass.Info)
	// Edges. A function literal's calls are attributed to the enclosing
	// declaration; literals launched via `go` taint everything inside
	// them with viaGo, as do direct `go f()` statements.
	for _, n := range g.nodes {
		addCallEdges(g, n)
	}
	return g
}

func newCallGraph() *callGraph {
	return &callGraph{
		nodes:  make(map[*types.Func]*cgNode),
		byName: make(map[string][]*cgNode),
	}
}

// addFuncs adds one node per declared function with a body in files.
func (g *callGraph) addFuncs(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &cgNode{fn: fn, decl: fd, info: info}
			g.nodes[fn] = n
			g.byName[fn.Name()] = append(g.byName[fn.Name()], n)
		}
	}
}

func addCallEdges(g *callGraph, n *cgNode) {
	// goLit collects the ranges of function literals that run on a
	// spawned goroutine (operand of a go statement, directly or nested).
	var goRanges [][2]token.Pos
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		gs, ok := node.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
			goRanges = append(goRanges, [2]token.Pos{lit.Pos(), lit.End()})
		}
		return true
	})
	inGoLit := func(pos token.Pos) bool {
		for _, r := range goRanges {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}

	var goCalls map[*ast.CallExpr]bool
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		if gs, ok := node.(*ast.GoStmt); ok {
			if goCalls == nil {
				goCalls = make(map[*ast.CallExpr]bool)
			}
			goCalls[gs.Call] = true
		}
		return true
	})

	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		viaGo := goCalls[call] || inGoLit(call.Pos())
		for _, callee := range g.resolve(calleeOf(n.info, call)) {
			e := &cgEdge{caller: n, callee: callee, pos: call.Pos(), viaGo: viaGo}
			n.out = append(n.out, e)
			callee.in = append(callee.in, e)
		}
		return true
	})
}

// resolve maps a callee to the nodes a call of it may invoke: fn's own
// node when it is declared in the graph, or — for an interface method —
// every same-named method of a concrete type in the graph implementing
// the interface (CHA).
func (g *callGraph) resolve(fn *types.Func) []*cgNode {
	if fn == nil {
		return nil
	}
	if n := g.node(fn); n != nil {
		return []*cgNode{n}
	}
	// Interface dispatch: fan out to in-package implementations.
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*cgNode
	for _, cand := range g.byName[fn.Name()] {
		csig, ok := cand.fn.Type().(*types.Signature)
		if !ok || csig.Recv() == nil {
			continue
		}
		rt := csig.Recv().Type()
		if types.Implements(rt, iface) || (!types.IsInterface(rt) && types.Implements(types.NewPointer(rt), iface)) {
			out = append(out, cand)
		}
	}
	return out
}
