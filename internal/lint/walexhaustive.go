package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// AnalyzerWALExhaustive enforces that every WAL op-kind dispatch handles
// every kind.
var AnalyzerWALExhaustive = &Analyzer{
	Name: "walexhaustive",
	Doc: `walexhaustive: every WAL kind dispatch handles every kind.

A WAL op kind exists in four dispatch sites: the v3 binary encoder and
decoder, the kind-tag mapping, and recovery replay. A kind added to the
encoder but not to replay is tomorrow's silent data-loss bug: the op is
durably logged, then recovery's default arm rejects (or worse, skips)
it.

The kind inventory is derived from the declarations, never hand-listed:
the wal package's Kind* string constants form one group, its binKind*
wire tags another. Any switch whose cases name two or more members of a
group is a kind dispatch and must name them all — a default arm does
not excuse a missing kind, because the default is exactly where an
unhandled kind goes to die. Applies to the wal and server packages.`,
	Run: runWALExhaustive,
}

var (
	walKindRe    = regexp.MustCompile(`^Kind[A-Z]`)
	walBinKindRe = regexp.MustCompile(`^binKind[A-Z]`)
)

// kindGroup is one derived inventory of dispatch constants.
type kindGroup struct {
	label   string
	members map[types.Object]bool
}

func runWALExhaustive(pass *Pass) error {
	if !pkgOneOf(pass, "wal", "server") {
		return nil
	}
	groups := walKindGroups(pass)
	if len(groups) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			sw, ok := node.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkKindSwitch(pass, sw, groups)
			return true
		})
	}
	return nil
}

// walKindGroups collects the kind inventories visible to this package:
// its own constants when analyzing wal itself, otherwise those of the
// imported wal package. The unexported binKind* wire tags are only
// visible — and only checkable — inside wal.
func walKindGroups(pass *Pass) []*kindGroup {
	var scopes []*types.Scope
	if pathBase(pass.PkgPath) == "wal" && pass.Pkg != nil {
		scopes = append(scopes, pass.Pkg.Scope())
	} else if pass.Pkg != nil {
		for _, imp := range pass.Pkg.Imports() {
			if pathBase(imp.Path()) == "wal" {
				scopes = append(scopes, imp.Scope())
			}
		}
	}
	kinds := &kindGroup{label: "wal.Kind*", members: map[types.Object]bool{}}
	bins := &kindGroup{label: "binKind*", members: map[types.Object]bool{}}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			obj, ok := scope.Lookup(name).(*types.Const)
			if !ok {
				continue
			}
			switch {
			case walKindRe.MatchString(name):
				kinds.members[obj] = true
			case walBinKindRe.MatchString(name):
				bins.members[obj] = true
			}
		}
	}
	var out []*kindGroup
	for _, g := range []*kindGroup{kinds, bins} {
		if len(g.members) >= 2 {
			out = append(out, g)
		}
	}
	return out
}

// checkKindSwitch tests one tagged switch against each group: a switch
// naming two or more of a group's members is a kind dispatch and must
// name every member.
func checkKindSwitch(pass *Pass, sw *ast.SwitchStmt, groups []*kindGroup) {
	for _, g := range groups {
		present := map[types.Object]bool{}
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, e := range cc.List {
				if obj := caseConst(pass, e); obj != nil && g.members[obj] {
					present[obj] = true
				}
			}
		}
		if len(present) < 2 || len(present) == len(g.members) {
			continue
		}
		var missing []string
		for m := range g.members {
			if !present[m] {
				missing = append(missing, m.Name())
			}
		}
		sort.Strings(missing)
		pass.Reportf(sw.Pos(),
			"WAL kind switch is not exhaustive: missing %s (the inventory is derived from the %s constants; encoder, decoder, kind-tag mapping and recovery replay must each handle every kind — a default arm is where an unhandled kind goes to die, not a handler)",
			strings.Join(missing, ", "), g.label)
	}
}

// caseConst resolves a case expression to the constant object it names,
// nil for literals and non-constant expressions.
func caseConst(pass *Pass, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.Info.Uses[x]
	case *ast.SelectorExpr:
		return pass.Info.Uses[x.Sel]
	}
	return nil
}
