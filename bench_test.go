package taskprune

// Benchmark harness: one bench per evaluation figure of the paper plus the
// DESIGN.md ablations. Each bench iteration regenerates the figure's full
// sweep at a reduced trial count (benchmarks measure harness cost and smoke
// the pipelines; EXPERIMENTS.md records the paper-scale numbers produced by
// cmd/hcsim). Run with:
//
//	go test -bench=. -benchmem
//
// The per-figure benches report robustness means through b.ReportMetric so
// a bench run doubles as a quick shape check.

import (
	"testing"

	"taskprune/internal/cluster"
	"taskprune/internal/experiments"
	"taskprune/internal/telemetry"
	"taskprune/internal/workload"
)

// benchOptions keeps a single bench iteration around a second or two on one
// core: 2 trials, 300 tasks per trial.
func benchOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Trials = 2
	o.Tasks = 300
	return o
}

func reportFigure(b *testing.B, fig *experiments.Figure) {
	b.Helper()
	for _, p := range fig.Points {
		b.ReportMetric(p.Robustness.Mean, p.Series+"@"+p.Label+"_rob%")
	}
}

// BenchmarkFig4Lambda regenerates Figure 4 (oversubscription EWMA weight λ
// sweep, single threshold vs Schmitt trigger).
func BenchmarkFig4Lambda(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			_ = fig
		}
	}
}

// BenchmarkFig5Thresholds regenerates Figure 5 (deferring threshold sweep
// per dropping threshold).
func BenchmarkFig5Thresholds(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Fairness regenerates Figure 6 (fairness factor sweep).
func BenchmarkFig6Fairness(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Robustness regenerates Figure 7 (all six heuristics at 19k
// and 34k) and reports the robustness means it observed.
func BenchmarkFig7Robustness(b *testing.B) {
	o := benchOptions()
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig7(o)
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	reportFigure(b, last)
}

// BenchmarkFig8Cost regenerates Figure 8 (cost per robustness point).
func BenchmarkFig8Cost(b *testing.B) {
	o := benchOptions()
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	for _, p := range last.Points {
		b.ReportMetric(p.CostPerPct.Mean, p.Series+"@"+p.Label+"_$/pct")
	}
}

// BenchmarkFig9Video regenerates Figure 9 (video transcoding, PAMF vs MM).
func BenchmarkFig9Video(b *testing.B) {
	o := benchOptions()
	var last *experiments.Figure
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig9(o)
		if err != nil {
			b.Fatal(err)
		}
		last = fig
	}
	reportFigure(b, last)
}

// BenchmarkAblationCompaction measures the PMF-compaction design choice.
func BenchmarkAblationCompaction(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCompaction(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEq7 measures the per-task threshold adjustment ablation.
func BenchmarkAblationEq7(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEq7(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationScenario measures scenario B vs C dropping semantics.
func BenchmarkAblationScenario(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationScenario(o); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSingleTrial measures one full 800-task trial of the named heuristic
// at the 34k level — the unit of work every figure multiplies.
func benchSingleTrial(b *testing.B, heuristic string) {
	matrix := SPECPET()
	cfg := MustConfigFor(heuristic, matrix)
	for i := 0; i < b.N; i++ {
		tasks := MustGenerateWorkload(WorkloadConfig{
			NumTasks: 800, Rate: RateForLevel(Level34k), VarFrac: 0.10, Beta: 2.0,
		}, matrix, NewRNG(int64(i)))
		sim, err := NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleTrialPAM measures one full 800-task PAM trial at the 34k
// level.
func BenchmarkSingleTrialPAM(b *testing.B) { benchSingleTrial(b, "PAM") }

// BenchmarkSingleTrialPAMF is the same trial under PAMF: PAM with
// per-type sufferage relaxing both pruning thresholds.
func BenchmarkSingleTrialPAMF(b *testing.B) { benchSingleTrial(b, "PAMF") }

// BenchmarkSingleTrialMOC is the same trial under MOC, the strongest
// baseline: robustness-based phase one without a pruner.
func BenchmarkSingleTrialMOC(b *testing.B) { benchSingleTrial(b, "MOC") }

// BenchmarkSingleTrialPAMTelemetry is BenchmarkSingleTrialPAM with a live
// probe registry, sampler, and phase timer attached. bench_guard.sh
// compares its allocs/op against the disabled variant in the same run and
// fails if instrumentation costs more than 10% — the measurable half of
// the zero-cost-when-disabled contract (the disabled half is pinned by the
// goldens and the baseline gate on BenchmarkSingleTrialPAM itself).
func BenchmarkSingleTrialPAMTelemetry(b *testing.B) {
	matrix := SPECPET()
	cfg := MustConfigFor("PAM", matrix)
	cfg.Telemetry = &telemetry.Options{SampleEvery: 100}
	cfg.PhaseTimer = telemetry.NewPhaseTimer()
	for i := 0; i < b.N; i++ {
		tasks := MustGenerateWorkload(WorkloadConfig{
			NumTasks: 800, Rate: RateForLevel(Level34k), VarFrac: 0.10, Beta: 2.0,
		}, matrix, NewRNG(int64(i)))
		sim, err := NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleTrialChurn measures one full 800-task PAM trial under the
// scen-fault fleet scenario (two failures with requeue, two recoveries, a
// degradation window) so the allocation guard also pins the fleet-event
// path: failures drain queues, requeues re-enter the batch, and every
// fleet event forces a full re-mapping against the shrunken fleet.
func BenchmarkSingleTrialChurn(b *testing.B) {
	matrix := SPECPET()
	cfg := MustConfigFor("PAM", matrix)
	cfg.Scenario = experiments.FaultScenario()
	for i := 0; i < b.N; i++ {
		wcfg := WorkloadConfig{
			NumTasks: 800, Rate: RateForLevel(workload.Level19k), VarFrac: 0.10, Beta: 2.0,
		}
		cfg.Scenario.ApplyBursts(&wcfg)
		tasks := MustGenerateWorkload(wcfg, matrix, NewRNG(int64(i)))
		sim, err := NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamTrialPAM1M pushes one million tasks through a single PAM
// trial fed by the constant-memory streaming source: arrivals are pulled
// on demand, retired tasks recycle through the pool, and accounting runs
// in streaming counters — so the reported B/op stays bounded by the live
// set (fleet + in-flight tasks + pool high-water) instead of growing with
// the task count. The arrivals/sec metric is the engine's end-to-end
// streaming throughput.
func BenchmarkStreamTrialPAM1M(b *testing.B) {
	const numTasks = 1_000_000
	matrix := SPECPET()
	cfg := MustConfigFor("PAM", matrix)
	for i := 0; i < b.N; i++ {
		src, err := workload.NewStream(WorkloadConfig{
			NumTasks: numTasks, Rate: RateForLevel(Level34k), VarFrac: 0.10, Beta: 2.0,
		}, matrix, NewRNG(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		sim, err := NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		st, err := sim.RunSource(src)
		if err != nil {
			b.Fatal(err)
		}
		if st.Total != numTasks {
			b.Fatalf("trial accounted %d of %d tasks", st.Total, numTasks)
		}
	}
	b.ReportMetric(float64(numTasks)*float64(b.N)/b.Elapsed().Seconds(), "arrivals/sec")
}

// benchClusterTrial measures one full 800-task trial sharded across four
// datacenters. Workload generation and engine construction run outside the
// timed region (StopTimer/StartTimer), so the recorded ns/op, B/op and
// allocs/op are the engine's warm steady state — the committed baseline
// gates those steady-state numbers, and bench_guard rejects one-iteration
// baselines whose first-run warm-up would roughly double the alloc count.
func benchClusterTrial(b *testing.B, route string, parallel bool) {
	b.Helper()
	matrix := SPECPET()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tasks := MustGenerateWorkload(WorkloadConfig{
			NumTasks: 800, Rate: RateForLevel(Level34k), VarFrac: 0.10, Beta: 2.0,
		}, matrix, NewRNG(int64(i)))
		policy, err := cluster.NewPolicy(route)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := cluster.New(cluster.Config{
			DCs: 4, Policy: policy, Parallel: parallel,
			Sim: MustConfigFor("PAM", matrix),
		})
		if err != nil {
			b.Fatal(err)
		}
		src := workload.FromTasks(tasks)
		b.StartTimer()
		st, _, err := eng.RunSource(src)
		if err != nil {
			b.Fatal(err)
		}
		if st.Total != 800 {
			b.Fatalf("cluster trial accounted %d of 800 tasks", st.Total)
		}
	}
	b.ReportMetric(800*float64(b.N)/b.Elapsed().Seconds(), "arrivals/sec")
}

// BenchmarkClusterTrialPAM measures one full 800-task PAM trial sharded
// across four datacenters behind the PET-aware dispatcher — the
// single-fleet trial's cluster counterpart. The bench guard pins its
// allocs/op and B/op, which is what keeps per-arrival dispatch
// allocation-free: routing is pure profile lookups over live machine
// state, each DC's simulator runs the same arena/cache steady state as
// the single fleet, and the cluster-level aggregate observes exits into
// bounded heaps.
func BenchmarkClusterTrialPAM(b *testing.B) {
	benchClusterTrial(b, "pet-aware", false)
}

// BenchmarkClusterTrialRR measures the same sharded trial behind the
// round-robin dispatcher — the sequential baseline for the wide-window
// parallel variant below.
func BenchmarkClusterTrialRR(b *testing.B) {
	benchClusterTrial(b, "round-robin", false)
}

// BenchmarkClusterTrialRRParallel exercises the wide-window driver (the
// -dcpar path, round-robin only): round-robin's picks read no queue
// state, so the engine routes whole inter-cluster-event windows into the
// per-DC worker queues and barriers only at cluster events. It is the
// measurement that keeps the driver: on a 2-vCPU host at -cpu 2 it ran
// about 1.7–1.8× faster than BenchmarkClusterTrialRR (no faster at
// -cpu 1).
func BenchmarkClusterTrialRRParallel(b *testing.B) {
	benchClusterTrial(b, "round-robin", true)
}

// BenchmarkSingleTrialMM is the baseline counterpart of
// BenchmarkSingleTrialPAM (scalar heuristics skip all convolution work).
func BenchmarkSingleTrialMM(b *testing.B) { benchSingleTrial(b, "MM") }

// BenchmarkAblationMOCThreshold measures the MOC culling-threshold sweep.
func BenchmarkAblationMOCThreshold(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMOCThreshold(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionApproximate measures the approximate-computing
// future-work extension.
func BenchmarkExtensionApproximate(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionApproximate(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPETDrift measures the PET-staleness sensitivity study.
func BenchmarkAblationPETDrift(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPETDrift(o); err != nil {
			b.Fatal(err)
		}
	}
}
