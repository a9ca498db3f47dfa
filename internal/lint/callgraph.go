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
// only they reach.
//
// Resolution is CHA-style over the typechecked package: direct calls
// resolve through types.Info.Uses; a call through an interface method
// fans out to every same-named method of a package-local concrete type
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
	out  []*cgEdge
	in   []*cgEdge
}

type callGraph struct {
	nodes  map[*types.Func]*cgNode
	byName map[string][]*cgNode // function name -> nodes (methods collide by design)
}

// node returns the graph node for fn, nil when fn is not a declared
// in-package function with a body.
func (g *callGraph) node(fn *types.Func) *cgNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn]
}

// buildCallGraph constructs the package call graph for a pass.
func buildCallGraph(pass *Pass) *callGraph {
	g := &callGraph{
		nodes:  make(map[*types.Func]*cgNode),
		byName: make(map[string][]*cgNode),
	}
	// Pass 1: one node per declared function with a body.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &cgNode{fn: fn, decl: fd}
			g.nodes[fn] = n
			g.byName[fn.Name()] = append(g.byName[fn.Name()], n)
		}
	}
	// Pass 2: edges. A function literal's calls are attributed to the
	// enclosing declaration; literals launched via `go` taint everything
	// inside them with viaGo, as do direct `go f()` statements.
	for _, n := range g.nodes {
		addCallEdges(pass, g, n)
	}
	return g
}

func addCallEdges(pass *Pass, g *callGraph, n *cgNode) {
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
		for _, callee := range resolveCallees(pass, g, call) {
			e := &cgEdge{caller: n, callee: callee, pos: call.Pos(), viaGo: viaGo}
			n.out = append(n.out, e)
			callee.in = append(callee.in, e)
		}
		return true
	})
}

// resolveCallees maps one call expression to the in-package nodes it
// may invoke: the statically-resolved callee when it is declared here,
// plus — for interface method calls — every same-named method of a
// package-local concrete type implementing the interface (CHA).
func resolveCallees(pass *Pass, g *callGraph, call *ast.CallExpr) []*cgNode {
	fn := calleeOf(pass.Info, call)
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
