package experiments

import (
	"fmt"

	"taskprune/internal/heuristics"
	"taskprune/internal/metrics"
	"taskprune/internal/pmf"
	"taskprune/internal/report"
	"taskprune/internal/simulator"
	"taskprune/internal/stats"
	"taskprune/internal/workload"
)

// The ablations quantify the design decisions DESIGN.md calls out beyond
// what the paper reports. Each is exposed both here and as a bench target.

// AblationCompaction measures PAM robustness at 34k as the PMF compaction
// bound varies: how much approximation the "aggregate impulses" overhead
// mitigation (Section IV) actually costs.
func AblationCompaction(o Options) (*Figure, error) {
	matrix := SPECPET()
	wcfg := o.workloadConfig(workload.Level34k)
	fig := &Figure{Name: "AblCompact", Caption: "PAM robustness vs PMF compaction bound @34k"}
	for _, maxImp := range []int{16, 32, 64, 128} {
		cfg := simulator.MustConfigFor("PAM", matrix)
		cfg.MaxImpulses = maxImp
		trials, err := o.RunPoint(matrix, wcfg, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation compaction %d: %w", maxImp, err)
		}
		fig.Points = append(fig.Points, NewPoint("PAM", fmt.Sprintf("imp=%d", maxImp), trials))
	}
	return fig, nil
}

// AblationEq7 compares PAM with and without the Eq. 7 per-task dropping
// threshold adjustment (skewness and queue position) at 19k and 34k.
func AblationEq7(o Options) (*Figure, error) {
	matrix := SPECPET()
	fig := &Figure{Name: "AblEq7", Caption: "PAM robustness with/without per-task threshold adjustment"}
	for _, level := range []float64{workload.Level19k, workload.Level34k} {
		wcfg := o.workloadConfig(level)
		for _, adjust := range []bool{true, false} {
			series := "uniform-threshold"
			if adjust {
				series = "eq7-adjusted"
			}
			cfg := simulator.MustConfigFor("PAM", matrix)
			pc := *cfg.Pruner
			pc.PerTaskAdjust = adjust
			cfg.Pruner = &pc
			trials, err := o.RunPoint(matrix, wcfg, cfg)
			if err != nil {
				return nil, fmt.Errorf("ablation eq7 adjust=%v: %w", adjust, err)
			}
			fig.Points = append(fig.Points, NewPoint(series, workload.LevelLabel(level), trials))
		}
	}
	return fig, nil
}

// AblationScenario compares PAM under scenario-B (pending-only dropping
// estimates, no deadline eviction) against the default scenario-C system
// (evict at deadline) at 34k.
func AblationScenario(o Options) (*Figure, error) {
	matrix := SPECPET()
	wcfg := o.workloadConfig(workload.Level34k)
	fig := &Figure{Name: "AblScenario", Caption: "PAM robustness under scenario B vs C dropping @34k"}
	type variant struct {
		name  string
		mode  pmf.DropMode
		evict bool
	}
	for _, v := range []variant{
		{"C-evict", pmf.Evict, true},
		{"B-pending", pmf.PendingDrop, false},
	} {
		cfg := simulator.MustConfigFor("PAM", matrix)
		cfg.Mode = v.mode
		cfg.EvictAtDeadline = v.evict
		trials, err := o.RunPoint(matrix, wcfg, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation scenario %s: %w", v.name, err)
		}
		fig.Points = append(fig.Points, NewPoint(v.name, "34k", trials))
	}
	return fig, nil
}

// AblationArrivalVariance sweeps the arrival-process variance fraction
// (the paper fixes 10% outside one side study) for PAM at 34k.
func AblationArrivalVariance(o Options) (*Figure, error) {
	matrix := SPECPET()
	fig := &Figure{Name: "AblArrival", Caption: "PAM robustness vs arrival variance fraction @34k"}
	for _, vf := range []float64{0.05, 0.10, 0.25, 0.50, 1.00} {
		opt := o
		opt.VarFrac = vf
		wcfg := opt.workloadConfig(workload.Level34k)
		cfg := simulator.MustConfigFor("PAM", matrix)
		trials, err := opt.RunPoint(matrix, wcfg, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation arrival var=%.2f: %w", vf, err)
		}
		fig.Points = append(fig.Points, NewPoint("PAM", fmt.Sprintf("var=%.0f%%", vf*100), trials))
	}
	return fig, nil
}

// AblationMOCThreshold sweeps MOC's culling threshold at 34k. MOC's
// robustness is strongly monotone in this knob — a higher culling bar
// approaches PAM's deferring behaviour — which explains why the gap
// between MOC and the scalar baselines is sensitive to the exact PET and
// load calibration (see EXPERIMENTS.md, deviations).
func AblationMOCThreshold(o Options) (*Figure, error) {
	matrix := SPECPET()
	wcfg := o.workloadConfig(workload.Level34k)
	fig := &Figure{Name: "AblMOC", Caption: "MOC robustness vs culling threshold @34k"}
	for _, th := range []float64{0.05, 0.15, 0.30, 0.50, 0.70} {
		cfg := simulator.MustConfigFor("MOC", matrix)
		cfg.Heuristic = heuristics.NewMOC(th)
		trials, err := o.RunPoint(matrix, wcfg, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation moc threshold %.2f: %w", th, err)
		}
		fig.Points = append(fig.Points, NewPoint("MOC", fmt.Sprintf("cull=%.0f%%", th*100), trials))
	}
	return fig, nil
}

// ExtensionApproximate evaluates the paper's second future-work item —
// approximately computing tasks instead of purely dropping them. A task
// evicted at its deadline that already received at least 70% of its
// execution exits as an approximate (degraded-quality) completion worth
// half a full completion in the quality-weighted robustness metric.
func ExtensionApproximate(o Options) (*Figure, error) {
	matrix := SPECPET()
	fig := &Figure{Name: "ExtApprox", Caption: "PAM with approximate completions (quality-weighted robustness)"}
	for _, level := range []float64{workload.Level19k, workload.Level34k} {
		wcfg := o.workloadConfig(level)
		for _, frac := range []float64{0, 0.5, 0.7, 0.9} {
			series := "PAM"
			if frac > 0 {
				series = fmt.Sprintf("PAM+approx>=%.0f%%", frac*100)
			}
			cfg := simulator.MustConfigFor("PAM", matrix)
			cfg.ApproxFraction = frac
			trials, err := o.RunPoint(matrix, wcfg, cfg)
			if err != nil {
				return nil, fmt.Errorf("extension approx=%.2f: %w", frac, err)
			}
			fig.Points = append(fig.Points, NewPoint(series, workload.LevelLabel(level), trials))
		}
	}
	return fig, nil
}

// QualityTable renders a figure's quality-weighted robustness alongside
// plain robustness (for the approximate-computing extension).
func QualityTable(f *Figure) *report.Table {
	t := report.NewTable(fmt.Sprintf("%s — %s", f.Name, f.Caption),
		"series", "x", "robustness %", "quality-weighted %", "approx completions")
	for _, p := range f.Points {
		var quality, approx float64
		for _, tr := range p.Trials {
			quality += tr.QualityPct
			approx += float64(tr.Approx)
		}
		n := float64(len(p.Trials))
		if n > 0 {
			quality /= n
			approx /= n
		}
		t.AddRow(p.Series, p.Label,
			report.FormatCI(p.Robustness.Mean, p.Robustness.HalfSpan),
			quality, approx)
	}
	return t
}

// AblationPETDrift measures how PAM degrades when the PET profile is stale:
// the scheduler keeps the original profile while the world's true execution
// distributions drift by a per-entry factor in [1−d, 1+d]. The paper assumes
// an accurate PET; this quantifies the cost of violating that assumption.
func AblationPETDrift(o Options) (*Figure, error) {
	estimate := SPECPET()
	wcfgBase := o.workloadConfig(workload.Level34k)
	fig := &Figure{Name: "AblDrift", Caption: "PAM robustness vs PET staleness (true means drift, profile does not) @34k"}
	for _, drift := range []float64{0, 0.10, 0.25, 0.50} {
		truth := estimate.Perturbed(drift, stats.NewRNG(int64(drift*1000)+7))
		// Workloads (deadlines + true execution times) come from the
		// drifted truth; the simulator maps with the stale estimate.
		trials, err := o.runTrials(func(trial int) (metrics.TrialStats, error) {
			tasks, err := workload.Generate(wcfgBase, truth, stats.NewRNG(TrialSeed(o.Seed, trial)))
			if err != nil {
				return metrics.TrialStats{}, err
			}
			sim, err := simulator.New(simulator.MustConfigFor("PAM", estimate))
			if err != nil {
				return metrics.TrialStats{}, err
			}
			return sim.Run(tasks)
		})
		if err != nil {
			return nil, fmt.Errorf("ablation drift=%.2f: %w", drift, err)
		}
		fig.Points = append(fig.Points, NewPoint("PAM", fmt.Sprintf("drift=%.0f%%", drift*100), trials))
	}
	return fig, nil
}
