// Package experiments defines the reproduction suite: the ordered list
// of tables and figures of the evaluation (see DESIGN.md §3) the CLI
// dispatches through, the evaluation grid most of them are declared
// on, corpus presets, and plain-text / CSV table rendering.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is one result table or figure series. Figures are rendered as
// the table of series points the plot would be drawn from.
type Table struct {
	ID      string // experiment id, e.g. "T2" or "F4"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string // provenance and reading hints
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		if v, ok := c.(float64); ok {
			row[i] = formatFloat(v)
		} else {
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v != v: // NaN
		return "n/a"
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for _, row := range append([][]string{t.Columns}, t.Rows...) {
		for i, cell := range row[:min(len(row), len(widths))] {
			widths[i] = max(widths[i], len(cell))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes the table as CSV (header + rows).
func (t *Table) WriteCSV(w io.Writer) error {
	if err := csv.NewWriter(w).WriteAll(append([][]string{t.Columns}, t.Rows...)); err != nil {
		return fmt.Errorf("experiments: csv: %w", err)
	}
	return nil
}
