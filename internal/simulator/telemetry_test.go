package simulator

import (
	"bytes"
	"math"
	"testing"

	"taskprune/internal/scenario"
	"taskprune/internal/stats"
	"taskprune/internal/telemetry"
	"taskprune/internal/workload"
)

// TestTelemetryProbesPopulated runs a full PAM trial with telemetry and
// phase timing on and checks that every probe family carries data and the
// event-path counters reconcile with the trial statistics.
func TestTelemetryProbesPopulated(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "PAM", matrix)
	cfg.Telemetry = &telemetry.Options{SampleEvery: 50, RingCap: 128}
	cfg.PhaseTimer = telemetry.NewPhaseTimer()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := workload.Generate(workload.Config{NumTasks: 300, Rate: 0.5, VarFrac: 0.1, Beta: 1.5}, matrix, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}

	snap := sim.Telemetry().Snapshot()
	vals := map[string]float64{}
	for _, s := range snap.Scalars {
		vals[s.Name] = s.Value
	}
	if vals["arrivals_total"] != float64(st.Total) {
		t.Errorf("arrivals_total = %v, want %d", vals["arrivals_total"], st.Total)
	}
	// Exit counters cover every task (TrialStats windows its counts), so
	// they must reconcile with arrivals, not with the windowed stats.
	exits := vals["completed_total"] + vals["missed_total"] + vals["dropped_total"] + vals["approx_total"]
	if exits != vals["arrivals_total"] {
		t.Errorf("exit counters sum to %v, want arrivals %v", exits, vals["arrivals_total"])
	}
	if vals["completed_total"] == 0 || vals["dropped_total"] == 0 {
		t.Errorf("oversubscribed PAM trial should both complete and drop tasks: %v", vals)
	}
	if vals["mapping_events_total"] == 0 {
		t.Error("no mapping events counted")
	}
	if vals["pruner_drops_total"] == 0 {
		t.Error("pruner drops counter reads 0 (PAM at 7x load must prune)")
	}
	if vals["eval_cache_hits_total"]+vals["eval_cache_misses_total"] == 0 {
		t.Error("eval-cache counters empty")
	}
	if vals["arena_blocks_highwater"] == 0 {
		t.Error("arena high-water gauge empty")
	}
	var batch *telemetry.HistValue
	for i := range snap.Hists {
		if snap.Hists[i].Name == "mapping_batch_size" {
			batch = &snap.Hists[i]
		}
	}
	if batch == nil || batch.Count != int64(vals["mapping_events_total"]) {
		t.Errorf("batch-size histogram count does not match mapping events")
	}

	s := sim.TelemetrySampler()
	if s.Len() == 0 {
		t.Fatal("sampler recorded no rows")
	}
	last := s.Row(s.Len() - 1)
	if last[0] != float64(sim.Now()) {
		t.Errorf("final row flushed at %v, want sim clock %d", last[0], sim.Now())
	}
	var csv bytes.Buffer
	if err := telemetry.WriteSamplersCSV(&csv, []telemetry.ScopedSampler{{Scope: "sim", S: s}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(csv.Bytes(), []byte("robustness_pct")) {
		t.Fatalf("CSV missing robustness column:\n%s", csv.Bytes())
	}

	bd := cfg.PhaseTimer.Breakdown()
	for _, p := range []telemetry.Phase{telemetry.PhaseAdmit, telemetry.PhaseStep, telemetry.PhaseEval, telemetry.PhaseConvolve, telemetry.PhaseOther} {
		if bd[p].Count == 0 {
			t.Errorf("phase %s recorded no spans", p)
		}
	}
}

// TestTelemetryDisabledIsInert: with no Options the simulator hands out nil
// telemetry handles and a trial behaves identically (the goldens pin the
// byte-level contract; this pins the accessor surface).
func TestTelemetryDisabledIsInert(t *testing.T) {
	matrix := simPET(t)
	sim, err := New(baseConfig(t, "PAM", matrix))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Telemetry() != nil || sim.TelemetrySampler() != nil {
		t.Fatal("telemetry handles non-nil with telemetry disabled")
	}
}

// TestCountersReadTheirStore pins the one-counter-store contract: every
// telemetry counter reads the tally the simulator keeps anyway, so a
// snapshot taken between sample boundaries — here after every admission,
// with no boundary inside the run — equals that store exactly. PAMF runs
// under machine churn with periodic checkpoints, so the requeue, restore
// and checkpoint tallies move; the evicting case moves every counter but
// missed_total, and the run-to-completion case is the one that misses.
// Runs under -race via make race-telemetry.
func TestCountersReadTheirStore(t *testing.T) {
	matrix := simPET(t)
	churn := scenario.New("churn")
	for k := int64(0); k < 8; k++ {
		churn.FailAt(60+80*k, int(k%2), scenario.Requeue).RecoverAt(100+80*k, int(k%2))
	}
	for _, tc := range []struct {
		name  string
		evict bool
		idle  []string // counters this configuration cannot move
	}{
		{"evict", true, []string{"missed_total"}},
		{"run-to-completion", false, []string{"approx_total", "evicted_total"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(t, "PAMF", matrix)
			cfg.EvictAtDeadline = tc.evict
			cfg.ApproxFraction = 0.5
			cfg.Scenario = churn
			cfg.Checkpoint = periodic(5, 1)
			cfg.Telemetry = &telemetry.Options{SampleEvery: 1 << 40}
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tasks, err := workload.Generate(workload.Config{NumTasks: 300, Rate: 0.5, VarFrac: 0.1, Beta: 1.5}, matrix, stats.NewRNG(77))
			if err != nil {
				t.Fatal(err)
			}
			check := func(admitted int) map[string]float64 {
				t.Helper()
				c := sim.collector.Counts()
				store := map[string]int64{
					"arrivals_total":          int64(admitted),
					"completed_total":         int64(c.Completed),
					"approx_total":            int64(c.Approx),
					"missed_total":            int64(c.Missed),
					"dropped_total":           int64(c.Dropped),
					"mapping_events_total":    int64(sim.MappingEvents()),
					"pruner_drops_total":      int64(sim.DroppedByPruner()),
					"evicted_total":           int64(sim.Evicted()),
					"requeued_total":          int64(sim.Requeued()),
					"restored_total":          int64(sim.Restored()),
					"checkpoints_total":       int64(sim.Checkpoints()),
					"eval_cache_hits_total":   sim.evalCache.Hits(),
					"eval_cache_misses_total": sim.evalCache.Misses(),
				}
				got := map[string]float64{}
				for _, sv := range sim.Telemetry().Snapshot().Scalars {
					if sv.Kind != telemetry.KindCounter {
						continue
					}
					want, ok := store[sv.Name]
					if !ok {
						t.Fatalf("counter %s has no store to check against", sv.Name)
					}
					if sv.Value != float64(want) {
						t.Fatalf("after %d admissions: %s = %v, its store holds %d", admitted, sv.Name, sv.Value, want)
					}
					got[sv.Name] = sv.Value
				}
				if len(got) != len(store) {
					t.Fatalf("snapshot has %d counters, want %d", len(got), len(store))
				}
				return got
			}
			sim.Begin(nil)
			for i, tk := range tasks {
				sim.StepUntil(tk.Arrival)
				if err := sim.Admit(tk); err != nil {
					t.Fatal(err)
				}
				check(i + 1)
			}
			sim.StepUntil(math.MaxInt64)
			final := check(len(tasks))
			if n := sim.TelemetrySampler().Len(); n != 0 {
				t.Fatalf("%d sample rows inside the run: the checks must read between boundaries", n)
			}
			idle := map[string]bool{}
			for _, name := range tc.idle {
				idle[name] = true
			}
			for name, v := range final {
				if (v == 0) != idle[name] {
					t.Errorf("%s = %v at the end (idle in this configuration: %v)", name, v, idle[name])
				}
			}
		})
	}
}
