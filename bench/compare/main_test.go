package main

import "testing"

func TestVerdict(t *testing.T) {
	bound := 0.1
	higher := specMetric{Better: "higher", Bound: &bound}
	lower := specMetric{Better: "lower", Bound: &bound}
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(k float64) []float64 {
		out := make([]float64, len(a))
		for i, x := range a {
			out[i] = x * k
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    specMetric
		b    []float64
		want string
	}{
		{"identical", higher, a, "no-worse"},
		{"better in every pair", higher, scaled(1.05), "improved"},
		{"worse within the bound", higher, scaled(0.95), "no-worse"},
		{"worse beyond the bound", higher, scaled(0.85), "regressed"},
		{"lower is better", lower, scaled(0.85), "improved"},
		{"spread wider than the bound", higher, []float64{60, 140, 70, 130, 100, 100, 80, 120, 90, 110}, "unresolved"},
		{"per-layer, no bound", specMetric{Better: "lower"}, a, "-"},
	} {
		if got := verdict(c.m, a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
