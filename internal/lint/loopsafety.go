package lint

import (
	"go/ast"
)

// managerMutators are the stream.Manager methods that change manager
// state. The Manager is not goroutine-safe: the tenant's single-writer
// event loop owns it, and every other goroutine reads only the published
// immutable view. Publish and Snapshot count: publishing advances the
// generation that decides which trie nodes the manager may still edit.
var managerMutators = map[string]bool{
	"Publish":         true,
	"Snapshot":        true,
	"Submit":          true,
	"Resubmit":        true,
	"Revoke":          true,
	"SetAvailability": true,
	"RestoreCounters": true,
	"Begin":           true,
	"Commit":          true,
	"AttachIndex":     true,
}

// loopRoots are unconditionally loop-owned: tenant construction (the
// loop goroutine has not started yet, so the constructor is the sole
// writer, recovery included) and the event loop itself.
var loopRoots = map[string]bool{
	"newTenant": true,
	"loop":      true,
}

// loopOwnerNames are the loop's sanctioned apply entry points. They are
// owned *conditionally*: a call to applyBatch from an HTTP handler strips
// its ownership, because that call runs the mutation concurrently with
// the event loop — the exact race the allowlist exists to prevent. With
// no in-package callers they stay owned (whole-program analysis is per
// package). Recovery needs no entry: restore's only caller is newTenant,
// a root, so it inherits ownership like any helper.
var loopOwnerNames = map[string]bool{
	"applyBatch": true,
}

// AnalyzerLoopSafety enforces single-writer ownership of stream.Manager.
var AnalyzerLoopSafety = &Analyzer{
	Name: "loopsafety",
	Doc: `loopsafety: stream.Manager mutations only from the tenant event loop.

stream.Manager is not goroutine-safe. Its mutating methods (Submit,
Resubmit, Revoke, SetAvailability, RestoreCounters, Begin, Commit,
AttachIndex, and Publish/Snapshot, which advance the trie generation)
may be called only from code the tenant event loop owns.
Ownership is computed over the package call graph: newTenant (which
recovers the tenant before starting its loop) and loop are owned by
construction; applyBatch is owned while every call to it comes from
owned code; and a helper is owned exactly when all of its callers are.
A mutator call anywhere else — an HTTP handler, a pool worker, a
goroutine launched with go, or a helper those can reach — is a data
race with the event loop, and the diagnostic shows the call chain that
leaks the mutation out.`,
	Run: runLoopSafety,
}

func runLoopSafety(pass *Pass) error {
	if !pkgOneOf(pass, "server") {
		return nil
	}
	g := buildCallGraph(pass)
	owned := computeLoopOwnership(g)
	for _, n := range g.nodes {
		if owned[n] {
			continue
		}
		checkLoopSafety(pass, g, n, owned)
	}
	return nil
}

// computeLoopOwnership runs the greatest-fixpoint ownership pass: start
// optimistic, then strip ownership from any function with a disowned or
// goroutine-launching caller, until stable. Functions with no in-package
// callers are owned only if their name says so (a root or an op-channel
// entry point); everything else needs an owned caller to inherit from.
func computeLoopOwnership(g *callGraph) map[*cgNode]bool {
	owned := make(map[*cgNode]bool, len(g.nodes))
	for _, n := range g.nodes {
		name := n.fn.Name()
		owned[n] = loopRoots[name] || loopOwnerNames[name] || len(n.in) > 0
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.nodes {
			if !owned[n] || loopRoots[n.fn.Name()] {
				continue
			}
			for _, e := range n.in {
				if e.viaGo || !owned[e.caller] {
					owned[n] = false
					changed = true
					break
				}
			}
		}
	}
	return owned
}

func checkLoopSafety(pass *Pass, g *callGraph, n *cgNode, owned map[*cgNode]bool) {
	chain := ownershipLeakChain(n, owned)
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(pass.Info, call)
		if fn == nil || !managerMutators[fn.Name()] {
			return true
		}
		if !methodOn(fn, fn.Name(), "Manager", "stream") {
			return true
		}
		msg := "stream.Manager." + fn.Name() + " called from " + n.decl.Name.Name +
			": mutating Manager methods may only be called from the tenant event loop or recovery (newTenant, loop, and the op-channel apply paths they own)"
		if chain != "" {
			msg += "; reached from " + chain
		}
		pass.Reportf(call.Pos(), "%s", msg)
		return true
	})
}

// ownershipLeakChain renders one caller path that strips n's ownership:
// from an entry point (or goroutine launch) down to n's caller, e.g.
// "adminReset → restoreHelper". Empty when n has no in-package callers
// (the violation is the function's own doing — the classic PR 9 case).
func ownershipLeakChain(n *cgNode, owned map[*cgNode]bool) string {
	if len(n.in) == 0 {
		return ""
	}
	var names []string
	seen := map[*cgNode]bool{n: true}
	cur := n
	for {
		var next *cgNode
		var viaGo bool
		for _, e := range cur.in {
			if !owned[e.caller] && !seen[e.caller] {
				next, viaGo = e.caller, e.viaGo
				break
			}
			if e.viaGo && !seen[e.caller] {
				next, viaGo = e.caller, true
				break
			}
		}
		if next == nil {
			break
		}
		seen[next] = true
		name := next.fn.Name()
		if viaGo {
			name += " (go)"
		}
		names = append(names, name)
		cur = next
	}
	// Reverse: outermost caller first.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	out := ""
	for i, nm := range names {
		if i > 0 {
			out += " → "
		}
		out += nm
	}
	return out
}
