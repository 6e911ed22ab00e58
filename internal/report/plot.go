package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Chart renders grouped series as a horizontal ASCII bar chart — enough to
// eyeball a regenerated figure in a terminal without plotting tools.
//
//	c := report.NewChart("robustness @34k", "%")
//	c.AddWithError("PAM", 50.2, 0.6)
//	c.AddWithError("MM", 22.8, 0.8)
//	fmt.Print(c.String())
type Chart struct {
	Title string
	Unit  string
	Width int // bar field width in characters (default 50)

	labels []string
	values []float64
	errs   []float64 // optional half-spans, NaN = none
}

// NewChart creates an empty chart.
func NewChart(title, unit string) *Chart {
	return &Chart{Title: title, Unit: unit, Width: 50}
}

// AddWithError appends one bar with a ± half-span annotation.
func (c *Chart) AddWithError(label string, value, half float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
	c.errs = append(c.errs, half)
}

// Write renders the chart to w.
func (c *Chart) Write(w io.Writer) error {
	if len(c.values) == 0 {
		_, err := fmt.Fprintf(w, "== %s == (no data)\n", c.Title)
		return err
	}
	width := c.Width
	if width <= 0 {
		width = 50
	}
	maxV := c.values[0]
	for _, v := range c.values {
		if v > maxV {
			maxV = v
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	labelW := 0
	for _, l := range c.labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", c.Title)
	}
	for i, v := range c.values {
		n := int(v / maxV * float64(width))
		if n < 0 {
			n = 0
		}
		bar := strings.Repeat("█", n)
		if n == 0 && v > 0 {
			bar = "▏"
		}
		fmt.Fprintf(&b, "%-*s │%-*s %.2f%s", labelW, c.labels[i], width, bar, v, c.Unit)
		if !math.IsNaN(c.errs[i]) {
			fmt.Fprintf(&b, " ± %.2f", c.errs[i])
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the chart.
func (c *Chart) String() string {
	var b strings.Builder
	if err := c.Write(&b); err != nil {
		return fmt.Sprintf("report: %v", err)
	}
	return b.String()
}
