package report

import (
	"math"
	"strings"
	"testing"
)

// TestChartZeroValueDefaults: a zero-value Chart (no NewChart) falls back
// to the default bar width, and an all-nonpositive series still renders
// without dividing by zero.
func TestChartZeroValueDefaults(t *testing.T) {
	c := &Chart{Unit: "%"}
	c.AddWithError("zero", 0, math.NaN())
	c.AddWithError("negative", -3, math.NaN())
	out := c.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("untitled chart should render bars only:\n%s", out)
	}
	if strings.Contains(out, "==") {
		t.Errorf("empty title rendered: %q", out)
	}
	if strings.Contains(out, "█") || strings.Contains(out, "▏") {
		t.Errorf("nonpositive values drew bars:\n%s", out)
	}
	if !strings.Contains(out, "-3.00%") {
		t.Errorf("negative value missing from labels:\n%s", out)
	}
}

func TestChartExplicitWidth(t *testing.T) {
	c := NewChart("w", "")
	c.Width = 10
	c.AddWithError("full", 5, math.NaN())
	if got := strings.Count(c.String(), "█"); got != 10 {
		t.Errorf("max bar at width 10 drew %d cells", got)
	}
}

// TestTableRowWiderThanHeaders: extra cells beyond the declared headers
// must not panic the width computation.
func TestTableRowWiderThanHeaders(t *testing.T) {
	tb := NewTable("t", "only")
	tb.AddRow("a", "surplus")
	if !strings.Contains(tb.String(), "a") {
		t.Fatalf("row lost: %q", tb.String())
	}
}

// TestTableAddRowDefaultFormatting: non-string, non-float cells render via
// %v (ints, bools).
func TestTableAddRowDefaultFormatting(t *testing.T) {
	tb := NewTable("", "n", "ok")
	tb.AddRow(42, true)
	out := tb.String()
	if !strings.Contains(out, "42") || !strings.Contains(out, "true") {
		t.Errorf("default formatting: %q", out)
	}
}

func TestFormatCIPrec(t *testing.T) {
	if got := FormatCIPrec(0.12345, 0.0042, 4); got != "0.1235 ± 0.0042" {
		t.Errorf("FormatCIPrec = %q", got)
	}
}
