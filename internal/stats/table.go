// Package stats provides the small formatting helpers the experiment
// harnesses use to print paper-style tables.
package stats

import (
	"fmt"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; cells beyond the header count are dropped.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	total := len(t.Headers)*2 - 2
	for _, w := range width {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// F formats a float compactly (3 significant-ish digits).
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100 || v <= -100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// CSV renders the table as comma-separated values (quotes when needed).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	for i, h := range t.Headers {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(esc(h))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(esc(c))
		}
		b.WriteString("\n")
	}
	return b.String()
}
