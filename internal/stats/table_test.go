package stats

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := New("title", "Name", "Value")
	tb.Add("short", "1")
	tb.Add("a-much-longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "title" {
		t.Errorf("first line = %q", lines[0])
	}
	// Header and rows share column offsets.
	header := lines[1]
	row := lines[4]
	hIdx := strings.Index(header, "Value")
	rIdx := strings.Index(row, "22")
	if hIdx != rIdx {
		t.Errorf("column misaligned: header at %d, row at %d\n%s", hIdx, rIdx, out)
	}
}

func TestTableAddTruncatesExtraCells(t *testing.T) {
	tb := New("", "A", "B")
	tb.Add("1", "2", "3", "4")
	if got := len(tb.Rows[0]); got != 2 {
		t.Errorf("row has %d cells, want 2", got)
	}
}

func TestTableAddRow(t *testing.T) {
	tb := New("", "A", "B")
	tb.Add([]string{"x|y", "2", "dropped"}...)
	if len(tb.Rows[0]) != 2 || tb.Rows[0][0] != "x|y" || tb.Rows[0][1] != "2" {
		t.Errorf("row = %v", tb.Rows[0])
	}
	tb.Add([]string{"only"}...)
	if len(tb.Rows[1]) != 2 || tb.Rows[1][0] != "only" || tb.Rows[1][1] != "" {
		t.Errorf("short row not padded: %v", tb.Rows[1])
	}
}

func TestFFormatting(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{3.14159, "3.14"},
		{42.7, "42.7"},
		{123.4, "123"},
		{-256.2, "-256"},
		{-12.34, "-12.3"},
	}
	for _, c := range cases {
		if got := F(c.in); got != c.want {
			t.Errorf("F(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.4567); got != "45.7%" {
		t.Errorf("Pct = %q", got)
	}
}

func TestCSV(t *testing.T) {
	tb := New("ignored", "A", "B")
	tb.Add("x,y", `say "hi"`)
	tb.Add("plain", "2")
	got := tb.CSV()
	want := "A,B\n\"x,y\",\"say \"\"hi\"\"\"\nplain,2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}
