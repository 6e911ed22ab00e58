package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"taskprune/bench/internal/result"
)

// tinyParams shrinks a workload to smoke-test size: 2000 batch tasks, or
// one second of serve load at 20 requests per second.
func tinyParams(w workloadDef) Params {
	p := w.params(1, 1)
	if w.serve {
		p.ReqPerSecond, p.Requests = 20, 20
	} else {
		p.Tasks = 2000
	}
	return p
}

// measured lists the per-layer metrics a workload exercises, which must
// read above 0; the rest belong to layers it bypasses.
func measured(w workloadDef) []string {
	names := []string{"pmf.convolve_ns", "pmf.compact_ns", "pmf.dropeval_ns", "pmf.cond_mean_shifted_ns"}
	if w.serve {
		return append(names, "server.submit_p50_ms", "server.submit_p99_ms", "server.settle_p99_ms",
			"server.post_service_p50_ms", "server.status_p50_ms", "loadgen.late_max_ms")
	}
	names = append(names, "heuristics.map_calls", "heuristics.map_ns", "heuristics.map_p99_us",
		"heuristics.map_share", "heuristics.batch_mean", "heuristics.map_useful_frac",
		"workload.next_calls", "workload.next_ns", "simulator.self_share")
	if w.heuristic == "PAM" {
		names = append(names, "pruner.passes", "pruner.convolve_share")
	}
	if w.dcs > 0 {
		names = append(names, "cluster.pick_calls", "cluster.pick_ns", "cluster.pick_share")
	}
	return names
}

func checkLine(t *testing.T, l result.Line, catalogue []metricDef) {
	t.Helper()
	if !l.Correct || l.Attempted < 1 || l.Failed != 0 {
		t.Errorf("correct %t, attempted %d, failed %d", l.Correct, l.Attempted, l.Failed)
	}
	if len(l.Metrics) != len(catalogue) {
		t.Errorf("%d metrics, catalogue has %d", len(l.Metrics), len(catalogue))
	}
	for _, m := range catalogue {
		got, ok := l.Metrics[m.name]
		if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s = %+v (present %t), want a finite value in %s", m.name, got, ok, m.unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at tiny size,
// checks every metric is reported, the run's correctness checks, and that
// a batch workload's simulated statistics repeat exactly for a seed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := tinyParams(w)
			u, err := execute(p, w.serve, false, time.Now(), false, "")
			if err != nil {
				t.Fatal(err)
			}
			e2e, checks := endToEndLine(u, []float64{u.SetupS}, 1)
			if len(checks) > 0 {
				t.Errorf("untraced checks failed: %v", checks)
			}
			checkLine(t, e2e, endToEnd)
			for name, m := range e2e.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.csv")
			tr, err := execute(p, w.serve, true, time.Now(), false, spans)
			if err != nil {
				t.Fatal(err)
			}
			layers, checks := perLayerLine(u, tr)
			if len(checks) > 0 {
				t.Errorf("traced checks failed: %v", checks)
			}
			checkLine(t, layers, perLayer)
			for _, name := range measured(w) {
				if v := layers.Metrics[name].Value; !(v > 0) {
					t.Errorf("per-layer %s = %v, want > 0", name, v)
				}
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("spans file: %v", err)
			}

			if w.serve {
				return // the daemon's clock depends on request batching
			}
			again, err := execute(p, false, false, time.Now(), false, "")
			if err != nil {
				t.Fatal(err)
			}
			if again.Stats != u.Stats || again.Metrics["robustness_pct"] != u.Metrics["robustness_pct"] {
				t.Errorf("same seed, different statistics:\n%s\n%s", u.Stats, again.Stats)
			}
		})
	}
}

// TestCatalogueMatchesBenchmarkJSON pins BENCHMARK.json to the workloads
// and metrics this program reports.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, bench has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, bench %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		json []metric
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, bench %d", len(c.json), len(c.code))
			continue
		}
		for i, m := range c.code {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %+v, bench %+v", i, c.json[i], m)
			}
		}
	}
}

// TestQuartilesMatchPython checks Quartiles against
// statistics.quantiles(xs, n=4), which the spread rules are written in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := result.Quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
