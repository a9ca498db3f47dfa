package experiments

import (
	"fmt"

	"stratrec/internal/adpar"
	"stratrec/internal/geometry"
	"stratrec/internal/strategy"
)

// Table1 reproduces the running-example table: three deployment requests
// and four strategies with normalized parameters.
func Table1(cfg Config) (Result, error) {
	t := Table{
		Title:   "Table 1: Deployment Requests and Strategies",
		Columns: []string{"", "Quality", "Cost", "Latency"},
	}
	for _, d := range strategy.PaperExampleRequests() {
		t.AddRow(d.ID, f2(d.Quality), f2(d.Cost), f2(d.Latency))
	}
	for _, s := range strategy.PaperExampleStrategies() {
		t.AddRow(s.Name, f2(s.Quality), f2(s.Cost), f2(s.Latency))
	}

	sat := Table{
		Title:   "Satisfaction check (Section 2.2): strategies satisfying each request",
		Columns: []string{"request", "satisfying strategies", "k=3 satisfiable"},
	}
	set := strategy.PaperExampleStrategies()
	for _, d := range strategy.PaperExampleRequests() {
		ids := set.Satisfying(d)
		names := ""
		for i, id := range ids {
			if i > 0 {
				names += " "
			}
			names += set[id].Name
		}
		if names == "" {
			names = "(none)"
		}
		sat.AddRow(d.ID, names, fmt.Sprintf("%v", len(ids) >= d.K))
	}
	return Result{
		ID:      "table-1",
		Caption: "Running example inputs; d3 is the only request satisfiable with k=3 (served s2, s3, s4).",
		Tables:  []Table{t, sat},
	}, nil
}

// Tables2to5 reproduces the ADPaR-Exact walk-through on d2: the relaxation
// matrix (Table 3), the sorted relaxation list R/I/D (Table 4), the three
// sweep-line orders (Table 5) and the coverage matrix M (Table 2), with the
// corrected values README.md lists under "Paper fidelity".
func Tables2to5(cfg Config) (Result, error) {
	set := strategy.PaperExampleStrategies()
	d := strategy.PaperExampleRequests()[1]
	tr, err := adpar.BuildTrace(set, d)
	if err != nil {
		return Result{}, err
	}

	t3 := Table{
		Title:   "Table 3 (corrected): step-1 relaxation values for d2",
		Columns: []string{"", "Quality", "Cost", "Latency"},
	}
	for i, r := range tr.Relax {
		t3.AddRow(set[i].Name, f2(r[0]), f2(r[1]), f2(r[2]))
	}

	t4 := Table{
		Title:   "Table 4: sorted relaxation list (R, I, D)",
		Columns: []string{"j", "R[j]", "I[j]", "D[j]"},
	}
	for j, e := range tr.R {
		t4.AddRow(fmt.Sprintf("%d", j), f2(e.Value), set[e.Strategy].Name, geometry.DimNames[e.Dim])
	}

	t5 := Table{
		Title:   "Table 5: sweep-line orders (ascending relaxation per parameter)",
		Columns: []string{"sweep", "order", "relaxations"},
	}
	for dim := 0; dim < geometry.Dims; dim++ {
		order, relax := "", ""
		for i, e := range tr.Sweeps[dim] {
			if i > 0 {
				order += " "
				relax += " "
			}
			order += set[e.Strategy].Name
			relax += f2(e.Relax)
		}
		t5.AddRow(geometry.DimNames[dim], order, relax)
	}

	t2 := Table{
		Title:   "Table 2: coverage matrix M (initial -> final)",
		Columns: []string{"", "Quality", "Cost", "Latency"},
	}
	b2i := func(b bool) string {
		if b {
			return "1"
		}
		return "0"
	}
	for i := range tr.MInitial {
		t2.AddRow(set[i].Name,
			b2i(tr.MInitial[i][0])+" -> "+b2i(tr.MFinal[i][0]),
			b2i(tr.MInitial[i][1])+" -> "+b2i(tr.MFinal[i][1]),
			b2i(tr.MInitial[i][2])+" -> "+b2i(tr.MFinal[i][2]))
	}

	sol := Table{
		Title:   "ADPaR-Exact solution for d2 (paper errata: see Paper fidelity in README.md)",
		Columns: []string{"quality'", "cost'", "latency'", "covered", "distance"},
	}
	covered := ""
	for i, id := range tr.Solution.Covered {
		if i > 0 {
			covered += " "
		}
		covered += set[id].Name
	}
	sol.AddRow(f2(tr.Solution.Alternative.Quality), f2(tr.Solution.Alternative.Cost),
		f2(tr.Solution.Alternative.Latency), covered, f3(tr.Solution.Distance))

	return Result{
		ID: "tables-2-5",
		Caption: "ADPaR-Exact intermediate state on d2 = (0.8, 0.2, 0.28), k=3. " +
			"The optimum is (0.75, 0.58, 0.28) covering {s2, s3, s4}; the paper's " +
			"printed answer (0.75, 0.5, 0.28) does not cover s1 and is not feasible for k=3.",
		Tables: []Table{t3, t4, t5, t2, sol},
	}, nil
}
