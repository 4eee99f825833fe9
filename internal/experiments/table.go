package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is one reproduced paper artifact, ready to print.
type Table struct {
	// ID is the experiment identifier (E1–E10; see DESIGN.md §4).
	ID string
	// Title names the paper artifact being reproduced.
	Title string
	// Note carries the paper's published claim for side-by-side reading.
	Note string
	// Columns and Rows hold the data.
	Columns []string
	Rows    [][]string
}

// Fprint renders the table with aligned columns.
func (t Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "   paper: %s\n", t.Note); err != nil {
			return err
		}
	}
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
	line := func(cells []string) string {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		return sb.String()
	}
	if _, err := fmt.Fprintf(w, "   %s\n", line(t.Columns)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "   %s\n", line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Fcsv renders the table as CSV (header row then data rows), for
// feeding plots — the Figure 4 series, the E7/E8 sweeps.
func (t Table) Fcsv(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}
