package experiments

import (
	"fmt"

	"taskprune/internal/cost"
	"taskprune/internal/pet"
	"taskprune/internal/simulator"
	"taskprune/internal/workload"
)

// Fig4 reproduces the paper's Figure 4: robustness of PAM at the 34k load
// as a function of the Eq. 8 EWMA weight λ, with and without the Schmitt
// trigger. The paper's finding: higher λ (weight on the most recent
// mapping event) wins, and the Schmitt trigger beats a single threshold.
func Fig4(o Options) (*Figure, error) {
	matrix := SPECPET()
	wcfg := o.workloadConfig(workload.Level34k)
	fig := &Figure{Name: "Fig4", Caption: "robustness vs λ, single threshold (default) vs Schmitt trigger, PAM @34k"}
	for _, schmitt := range []bool{false, true} {
		series := "default"
		if schmitt {
			series = "schmitt"
		}
		for i := 1; i <= 10; i++ {
			lambda := float64(i) / 10
			cfg := simulator.MustConfigFor("PAM", matrix)
			pc := *cfg.Pruner
			pc.Lambda = lambda
			pc.UseSchmitt = schmitt
			cfg.Pruner = &pc
			trials, err := o.RunPoint(matrix, wcfg, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig4 λ=%.1f schmitt=%v: %w", lambda, schmitt, err)
			}
			fig.Points = append(fig.Points, NewPoint(series, fmt.Sprintf("λ=%.1f", lambda), trials))
		}
	}
	return fig, nil
}

// Fig5 reproduces Figure 5: robustness of PAM at 34k as the deferring
// threshold grows from each dropping threshold (25%, 50%, 75%) in 5-point
// steps up to 90%. The paper's finding: a high deferring threshold
// dominates, and with it the dropping threshold barely matters.
func Fig5(o Options) (*Figure, error) {
	matrix := SPECPET()
	wcfg := o.workloadConfig(workload.Level34k)
	fig := &Figure{Name: "Fig5", Caption: "robustness vs deferring threshold per dropping threshold, PAM @34k"}
	for _, drop := range []float64{0.25, 0.50, 0.75} {
		series := fmt.Sprintf("drop=%.0f%%", drop*100)
		for defer_ := drop + 0.05; defer_ <= 0.901; defer_ += 0.05 {
			cfg := simulator.MustConfigFor("PAM", matrix)
			pc := *cfg.Pruner
			pc.DropThreshold = drop
			pc.DeferThreshold = defer_
			cfg.Pruner = &pc
			trials, err := o.RunPoint(matrix, wcfg, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig5 drop=%.2f defer=%.2f: %w", drop, defer_, err)
			}
			fig.Points = append(fig.Points, NewPoint(series, fmt.Sprintf("defer=%.0f%%", defer_*100), trials))
		}
	}
	return fig, nil
}

// Fig6 reproduces Figure 6: PAMF's fairness/robustness trade-off as the
// fairness factor sweeps 0–25% at the 19k and 34k loads. The paper's
// finding: a 5% factor sharply cuts the variance of per-type completions
// at a ~10% relative robustness cost; larger factors add little.
func Fig6(o Options) (*Figure, error) {
	matrix := SPECPET()
	fig := &Figure{Name: "Fig6", Caption: "type-completion variance and robustness vs fairness factor, PAMF @19k/34k"}
	for _, level := range []float64{workload.Level19k, workload.Level34k} {
		wcfg := o.workloadConfig(level)
		series := workload.LevelLabel(level)
		for _, factor := range []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25} {
			cfg := simulator.MustConfigFor("PAMF", matrix)
			cfg.FairnessFactor = factor
			trials, err := o.RunPoint(matrix, wcfg, cfg)
			if err != nil {
				return nil, fmt.Errorf("fig6 level=%s ϑ=%.2f: %w", series, factor, err)
			}
			fig.Points = append(fig.Points, NewPoint(series, fmt.Sprintf("ϑ=%.0f%%", factor*100), trials))
		}
	}
	return fig, nil
}

// Fig7 reproduces Figure 7: robustness of PAM, PAMF, MOC, MM, MSD, MMU at
// the 19k and 34k loads. The paper's finding: PAM ≈ 70% > PAMF ≈ MOC ≈ 50%
// ≫ MM ≈ 25% > MSD/MMU ≈ 0 at high oversubscription.
func Fig7(o Options) (*Figure, error) {
	return heuristicComparison(o, "Fig7",
		"robustness by heuristic and oversubscription level",
		SPECPET(), []string{"PAM", "PAMF", "MOC", "MM", "MSD", "MMU"},
		[]float64{workload.Level19k, workload.Level34k}, cost.SPECMachinePrices())
}

// Fig8 reproduces Figure 8: incurred cost per robustness point for PAM,
// PAMF, MOC and MM at 19k and 34k. The paper's finding: pruning cuts the
// cost per completed-task percentage by roughly 40% versus MOC.
func Fig8(o Options) (*Figure, error) {
	return heuristicComparison(o, "Fig8",
		"cost per robustness point by heuristic and oversubscription level",
		SPECPET(), []string{"PAM", "PAMF", "MOC", "MM"},
		[]float64{workload.Level19k, workload.Level34k}, cost.SPECMachinePrices())
}

// Fig9 reproduces Figure 9: PAMF vs MM on the video-transcoding workload
// across four oversubscription levels. The paper's finding: PAMF's margin
// over MinMin widens as oversubscription grows.
func Fig9(o Options) (*Figure, error) {
	matrix := VideoPET()
	fig := &Figure{Name: "Fig9", Caption: "robustness on the video-transcoding workload, PAMF vs MM"}
	for _, level := range []float64{workload.Level10k, workload.Level12k5, workload.Level15k, workload.Level17k5} {
		wcfg := o.workloadConfig(level)
		wcfg.Rate = workload.VideoRateForLevel(level) // video system span (see levels.go)
		label := workload.LevelLabel(level)
		for _, hname := range []string{"PAMF", "MM"} {
			cfg, err := simulator.ConfigFor(hname, matrix)
			if err != nil {
				return nil, err
			}
			cfg.Prices = cost.VideoMachinePrices()
			trials, err := o.RunPoint(matrix, wcfg, cfg)
			if err != nil {
				return nil, fmt.Errorf("Fig9 %s @%s: %w", hname, label, err)
			}
			fig.Points = append(fig.Points, NewPoint(hname, label, trials))
		}
	}
	return fig, nil
}

// heuristicComparison runs a set of heuristics across load levels on one
// PET matrix.
func heuristicComparison(o Options, name, caption string, matrix *pet.Matrix, names []string, levels []float64, prices []float64) (*Figure, error) {
	fig := &Figure{Name: name, Caption: caption}
	for _, level := range levels {
		wcfg := o.workloadConfig(level)
		label := workload.LevelLabel(level)
		for _, hname := range names {
			cfg, err := simulator.ConfigFor(hname, matrix)
			if err != nil {
				return nil, err
			}
			cfg.Prices = prices
			trials, err := o.RunPoint(matrix, wcfg, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s %s @%s: %w", name, hname, label, err)
			}
			fig.Points = append(fig.Points, NewPoint(hname, label, trials))
		}
	}
	return fig, nil
}
