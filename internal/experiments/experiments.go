// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each runner produces text tables holding the same
// rows/series the paper reports; cmd/experiments renders them, and this
// package's tests assert each one's claim from the paper.
//
// Runners accept a Config so tests can run trimmed workloads (Short) while
// the full harness reproduces the paper's parameter ranges.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Config controls workload sizes and reproducibility.
type Config struct {
	// Seed drives every random generator; runs are reproducible per seed.
	Seed int64
	// Short trims workload sizes for CI and unit tests.
	Short bool
	// Runs is the number of repetitions averaged per data point; 0 means
	// the experiment default (10, matching the paper).
	Runs int
}

func (c Config) runs(def int) int {
	if c.Runs > 0 {
		return c.Runs
	}
	if c.Short {
		return 2
	}
	return def
}

// Table is one rendered result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of already formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render produces an aligned plain-text table.
func (t Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// Result is one experiment's output.
type Result struct {
	// ID names the reproduced artifact, e.g. "figure-14" or "table-6".
	ID string
	// Caption summarizes what the paper reports and what to look for.
	Caption string
	// Tables holds the regenerated data.
	Tables []Table
}

// Render produces the full text report of a result.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==== %s ====\n%s\n\n", r.ID, r.Caption)
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// Runner is a named experiment.
type Runner struct {
	ID  string
	Run func(Config) (Result, error)
}

// All returns every experiment runner in paper order.
func All() []Runner {
	return []Runner{
		{ID: "table-1", Run: Table1},
		{ID: "tables-2-5", Run: Tables2to5},
		{ID: "figure-11", Run: Figure11},
		{ID: "figure-12", Run: Figure12},
		{ID: "table-6", Run: Table6},
		{ID: "figure-13", Run: Figure13},
		{ID: "figure-14", Run: Figure14},
		{ID: "figure-15", Run: Figure15},
		{ID: "figure-16", Run: Figure16},
		{ID: "figure-17", Run: Figure17},
		{ID: "figure-18", Run: Figure18},
		{ID: "ablations", Run: Ablations},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs lists all runner IDs, sorted in paper order.
func IDs() []string {
	var ids []string
	for _, r := range All() {
		ids = append(ids, r.ID)
	}
	return ids
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
