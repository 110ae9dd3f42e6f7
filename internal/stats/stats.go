// Package stats provides small numeric helpers and a table type used by
// the experiment harness to render paper-style results as aligned text,
// markdown, or CSV.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Table is a titled grid of cells with named columns.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and columns.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; it pads or truncates to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

func (t *Table) widths() []int {
	w := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		w[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	w := t.widths()
	writeRow := func(cells []string) {
		for i := range t.Columns {
			if i > 0 {
				b.WriteString("  ")
			}
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", w[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", w[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(sep, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*note: %s*\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values, quoting cells per
// RFC 4180 (any cell containing a comma, quote, CR, or LF is wrapped in
// quotes with embedded quotes doubled).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\r\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cells[i] = esc(c)
	}
	b.WriteString(strings.Join(cells, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, c := range row {
			cells[i] = esc(c)
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Pct formats a fraction as a percentage with one decimal ("12.3%").
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// F2 formats with two decimals.
func F2(x float64) string { return fmt.Sprintf("%.2f", x) }

// F3 formats with three decimals.
func F3(x float64) string { return fmt.Sprintf("%.3f", x) }

// N formats an integer count.
func N[T ~int | ~int64 | ~uint64 | ~uint](v T) string { return fmt.Sprintf("%d", v) }

// Ratio formats a/b as "1.23x"; returns "-" when b is zero.
func Ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

// Geomean returns the geometric mean of xs, ignoring non-positive values
// by flooring them at eps (mispredict rates of exactly 0 would otherwise
// zero the product).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	const eps = 1e-9
	sum := 0.0
	for _, x := range xs {
		if x < eps {
			x = eps
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
