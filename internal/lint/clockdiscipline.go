package lint

import (
	"go/ast"
	"go/types"
)

// clockBanned are the package-level time functions that read the runtime
// wall clock. time.Sleep and time.NewTimer stay legal: they schedule,
// they do not observe — scheduling against the real clock while
// observing through the injected one is exactly the split the group
// committer and fault hooks rely on.
var clockBanned = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
	"After": true,
	"Tick":  true,
}

// AnalyzerClockDiscipline bans direct wall-clock reads where the
// injected clock rules.
var AnalyzerClockDiscipline = &Analyzer{
	Name: "clockdiscipline",
	Doc: `clockdiscipline: no wall-clock reads in clock-injected subsystems.

In internal/server and internal/conformance every time observation —
enqueue stamps, EWMA latency samples, projected-wait deadline checks,
uptime — must come from the injected clock (Config.Now / the tenant's
now field), never time.Now, time.Since, time.Until, time.After, or
time.Tick. One stray wall-clock read makes overload shedding,
Retry-After hints, and replay timing nondeterministic under the
conformance harness's fixed or stepped clock.

Genuine wall-clock measurements (benchmark wall time, recovery duration
reported to a human) use the escape hatch:

	//lint:allow clockdiscipline -- <why this must be the real clock>`,
	Run: runClockDiscipline,
}

func runClockDiscipline(pass *Pass) error {
	if !pkgOneOf(pass, "server", "conformance") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !clockBanned[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock: use the injected clock (Config.Now / tenant now) so behavior is reproducible under a fake clock, or annotate `//lint:allow clockdiscipline -- reason`",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}
