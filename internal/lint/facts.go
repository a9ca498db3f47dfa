package lint

import (
	"go/token"
	"strings"
)

// Fact propagation: an analyzer observes a property directly in some
// function bodies ("appends to the WAL", "sends an opResult", "writes
// through its receiver") and wants to know, for every function, whether
// the property may hold transitively — through any depth of helper
// calls. propagateFact runs the bottom-up fixpoint over the call graph
// and keeps, per function, a witness: either the position of a direct
// occurrence or the call edge the fact arrived through, so a diagnostic
// can show the chain instead of asserting the conclusion.

// factWitness records how a function acquired a fact.
type factWitness struct {
	// direct is the position of an in-body occurrence (NoPos when the
	// fact is purely transitive).
	direct token.Pos
	// via is a call edge to a callee holding the fact (nil when direct).
	via *cgEdge
}

// factSet is the result of one propagation: the functions holding the
// fact, each with one witness.
type factSet struct {
	m map[*cgNode]*factWitness
}

// has reports whether n holds the fact (directly or transitively).
func (fs *factSet) has(n *cgNode) bool {
	if n == nil {
		return false
	}
	_, ok := fs.m[n]
	return ok
}

// chain renders the helper chain from n down to a direct occurrence,
// e.g. "persist → persistInner". The terminal direct function is the
// last element; n itself is the first. Returns "" when n holds the fact
// directly (no chain worth showing).
func (fs *factSet) chain(n *cgNode) string {
	w, ok := fs.m[n]
	if !ok || w.via == nil {
		return ""
	}
	var names []string
	seen := map[*cgNode]bool{n: true}
	for w != nil && w.via != nil {
		next := w.via.callee
		if seen[next] {
			break
		}
		seen[next] = true
		names = append(names, next.fn.Name())
		w = fs.m[next]
	}
	return strings.Join(names, " → ")
}

// propagateFact computes the transitive closure of seeds over the call
// graph: a caller acquires the fact from any callee holding it. Go
// statements count — a property that may happen on a spawned goroutine
// still may happen.
func propagateFact(g *callGraph, seeds map[*cgNode]token.Pos) *factSet {
	fs := &factSet{m: make(map[*cgNode]*factWitness, len(seeds))}
	var work []*cgNode
	for n, pos := range seeds {
		fs.m[n] = &factWitness{direct: pos}
		work = append(work, n)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range n.in {
			if _, ok := fs.m[e.caller]; ok {
				continue
			}
			fs.m[e.caller] = &factWitness{via: e}
			work = append(work, e.caller)
		}
	}
	return fs
}
