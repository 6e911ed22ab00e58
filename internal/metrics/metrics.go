// Package metrics turns raw trial outcomes into the quantities the paper
// reports: robustness (% of tasks completed on time), per-task-type
// completion percentages and their variance (the fairness metric), and
// cost per robustness point — all computed over the paper's steady-state
// window (first and last 100 task exits trimmed away).
package metrics

// ApproxQualityWeight is the value credited to an approximate completion
// relative to a full one in the quality-weighted robustness metric.
const ApproxQualityWeight = 0.5

// DefaultTrim is the number of earliest and latest task exits excluded
// from analysis (paper Section VI-B: "the first and last hundred (100)
// tasks to complete are removed from the results").
const DefaultTrim = 100

// TrialStats summarizes one simulation trial.
type TrialStats struct {
	Total     int // tasks simulated
	Window    int // tasks analyzed after trimming
	Completed int // on-time completions within the window
	Missed    int // executed but finished late (within window)
	Dropped   int // pruned or expired before completing (within window)
	// Approx counts approximate completions (evicted at the deadline with
	// enough execution received to deliver a degraded result; 0 unless the
	// approximate-computing extension is enabled).
	Approx int

	RobustnessPct float64 // 100 * Completed / Window
	// QualityPct is the extension's quality-weighted robustness:
	// 100 * (Completed + ApproxQualityWeight*Approx) / Window.
	QualityPct float64

	PerTypeWindow    []int     // tasks of each type within the window
	PerTypeCompleted []int     // on-time completions per type
	PerTypePct       []float64 // per-type completion percentage
	TypeVariancePct  float64   // population variance of PerTypePct

	TotalDefers int     // pruner deferrals across window tasks
	TotalCost   float64 // dollars of machine busy time (whole trial)
	// CostPerPct is the paper's Fig. 8 metric: machine-time cost divided
	// by the robustness percentage achieved. An 800-task trial's absolute
	// dollar figure is tiny, so the metric is expressed in millidollars
	// (m$) per robustness point — only relative magnitudes matter to the
	// comparison.
	CostPerPct float64
}

// RobustnessValues extracts RobustnessPct from each trial.
func RobustnessValues(trials []TrialStats) []float64 {
	out := make([]float64, len(trials))
	for i, t := range trials {
		out[i] = t.RobustnessPct
	}
	return out
}

// VarianceValues extracts TypeVariancePct from each trial.
func VarianceValues(trials []TrialStats) []float64 {
	out := make([]float64, len(trials))
	for i, t := range trials {
		out[i] = t.TypeVariancePct
	}
	return out
}

// CostValues extracts CostPerPct from each trial.
func CostValues(trials []TrialStats) []float64 {
	out := make([]float64, len(trials))
	for i, t := range trials {
		out[i] = t.CostPerPct
	}
	return out
}
