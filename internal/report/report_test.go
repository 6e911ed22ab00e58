package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.234567)
	tb.AddRow("beta-longer", "raw")
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "1.23") {
		t.Errorf("float not formatted to 2 decimals: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, separator, 2 rows -> 5? title+header+sep+2rows = 5
		// Recount: title line, header, separator, two rows = 5 lines.
		if len(lines) != 5 {
			t.Errorf("unexpected line count %d: %q", len(lines), out)
		}
	}
	// Columns align: header and row share the first column width.
	var header, row string
	for _, l := range lines {
		if strings.HasPrefix(l, "name") {
			header = l
		}
		if strings.HasPrefix(l, "alpha") {
			row = l
		}
	}
	if header == "" || row == "" {
		t.Fatalf("missing header/row in %q", out)
	}
	if idx1, idx2 := strings.Index(header, "value"), strings.Index(row, "1.23"); idx1 != idx2 {
		t.Errorf("columns misaligned: header %d vs row %d\n%s", idx1, idx2, out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.Contains(tb.String(), "==") {
		t.Error("empty title rendered")
	}
}

func TestWriteCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("plain", `has "quotes", and commas`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], `"has ""quotes"", and commas"`) {
		t.Errorf("RFC4180 escaping failed: %q", lines[1])
	}
}

func TestFormatCI(t *testing.T) {
	if got := FormatCI(42.123, 1.567); got != "42.12 ± 1.57" {
		t.Errorf("FormatCI = %q", got)
	}
}

func TestChartRendering(t *testing.T) {
	c := NewChart("demo", "%")
	c.AddWithError("PAM", 50, math.NaN())
	c.AddWithError("MM", 25, 1.5)
	out := c.String()
	if !strings.Contains(out, "== demo ==") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3:\n%s", len(lines), out)
	}
	// The larger value gets the longer bar.
	pamBars := strings.Count(lines[1], "█")
	mmBars := strings.Count(lines[2], "█")
	if pamBars <= mmBars {
		t.Errorf("bar lengths wrong: PAM %d vs MM %d\n%s", pamBars, mmBars, out)
	}
	if !strings.Contains(lines[2], "± 1.50") {
		t.Errorf("missing error annotation: %q", lines[2])
	}
}

func TestChartEmpty(t *testing.T) {
	c := NewChart("empty", "")
	if !strings.Contains(c.String(), "no data") {
		t.Errorf("empty chart = %q", c.String())
	}
}

func TestChartTinyValueGetsSliver(t *testing.T) {
	c := NewChart("t", "")
	c.AddWithError("big", 1000, math.NaN())
	c.AddWithError("tiny", 0.01, math.NaN())
	out := c.String()
	if !strings.Contains(out, "▏") {
		t.Errorf("tiny positive value should render a sliver:\n%s", out)
	}
}
