// Package experiments regenerates every figure of the paper's evaluation
// (Section VII) plus the ablation studies called out in DESIGN.md. Each
// experiment sweeps its parameter, fans independent workload trials out
// over a worker pool, and aggregates robustness/fairness/cost with 95%
// confidence intervals.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"taskprune/internal/metrics"
	"taskprune/internal/pet"
	"taskprune/internal/report"
	"taskprune/internal/simulator"
	"taskprune/internal/stats"
	"taskprune/internal/workload"
)

// Options controls experiment scale. The zero value is unusable; start
// from DefaultOptions.
type Options struct {
	// Trials per configuration point (paper: 30).
	Trials int
	// Tasks per trial (paper: 800).
	Tasks int
	// Seed is the base seed; trial k uses Seed + k so all series at the
	// same load level see identical workloads.
	Seed int64
	// Workers bounds trial parallelism (0 → GOMAXPROCS).
	Workers int
	// Beta is the deadline slack coefficient for generated workloads.
	Beta float64
	// VarFrac is the arrival-gamma variance fraction (paper: 0.10).
	VarFrac float64
	// Streamed switches trials to the pure streaming arrival source
	// (workload.NewStream): constant memory in the trial length, per-type
	// RNG splits. Off, trials use the replay-mode source, whose workloads
	// are byte-identical to the historical pre-generated slices.
	Streamed bool
}

// DefaultOptions mirrors the paper's experimental scale.
func DefaultOptions() Options {
	return Options{Trials: 30, Tasks: 800, Seed: 1, Workers: 0, Beta: 2.0, VarFrac: 0.10}
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) workloadConfig(level float64) workload.Config {
	return workload.Config{
		NumTasks: o.Tasks,
		Rate:     workload.RateForLevel(level),
		VarFrac:  o.VarFrac,
		Beta:     o.Beta,
	}
}

// petCache builds each PET matrix exactly once per process: the paper
// holds the PET "constant across all of our experiments".
var petCache struct {
	once  sync.Once
	spec  *pet.Matrix
	video *pet.Matrix
}

// petSeed fixes PET profiling randomness across the whole evaluation.
const petSeed = 0xBEEF

// SPECPET returns the shared 12×8 SPEC-like PET matrix.
func SPECPET() *pet.Matrix {
	petCache.once.Do(buildPETs)
	return petCache.spec
}

// VideoPET returns the shared 4×4 video-transcoding PET matrix.
func VideoPET() *pet.Matrix {
	petCache.once.Do(buildPETs)
	return petCache.video
}

func buildPETs() {
	rng := stats.NewRNG(petSeed)
	petCache.spec = pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), rng)
	petCache.video = pet.MustBuild(pet.VideoMeans(), pet.DefaultBuildConfig(), rng)
}

// TrialSeed derives the RNG seed of trial k under base seed. The
// derivation depends only on (base, k) — never on which worker goroutine
// picks the trial up or in what order trials finish — so every experiment
// is reproducible under any Workers setting, including Workers=1. All
// series at the same load level see identical workloads because they share
// the base seed.
func TrialSeed(base int64, k int) int64 { return base + int64(k) }

// RunPoint executes Trials independent workload trials of one system
// configuration and returns the per-trial statistics in trial order. A
// scenario on the simulator config also shapes the workload: its burst
// windows apply to the arrival source.
func (o Options) RunPoint(matrix *pet.Matrix, wcfg workload.Config, simCfg simulator.Config) ([]metrics.TrialStats, error) {
	simCfg.Scenario.ApplyBursts(&wcfg)
	return o.runTrials(func(trial int) (metrics.TrialStats, error) {
		src, err := o.source(trial, wcfg, matrix)
		if err != nil {
			return metrics.TrialStats{}, err
		}
		sim, err := simulator.New(simCfg)
		if err != nil {
			return metrics.TrialStats{}, err
		}
		return sim.RunSource(src)
	})
}

// runTrials runs trial 0..Trials-1 across a fixed pool of worker
// goroutines and returns their statistics in trial order, or the first
// error in trial order.
//
// Each worker owns its trial end to end (workload generation, a private
// simulator or engine, metrics collection), so trials share no mutable
// state; the simulators' PMF arenas draw their scratch blocks from a
// process-wide pool, which keeps the steady-state allocation rate flat no
// matter how many trials run.
func (o Options) runTrials(run func(trial int) (metrics.TrialStats, error)) ([]metrics.TrialStats, error) {
	if o.Trials <= 0 {
		return nil, fmt.Errorf("experiments: Trials must be positive, got %d", o.Trials)
	}
	results := make([]metrics.TrialStats, o.Trials)
	errs := make([]error, o.Trials)
	trials := make(chan int)
	var wg sync.WaitGroup
	for range min(o.workers(), o.Trials) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for trial := range trials {
				results[trial], errs[trial] = run(trial)
			}
		}()
	}
	for trial := 0; trial < o.Trials; trial++ {
		trials <- trial
	}
	close(trials)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// source builds trial's arrival source: the replay-mode source by
// default, whose workloads match the historical pre-generated slices byte
// for byte, or the pure streaming source under Streamed. Either way a
// trial's live heap holds in-flight tasks, not the whole workload.
func (o Options) source(trial int, wcfg workload.Config, matrix *pet.Matrix) (workload.Source, error) {
	rng := stats.NewRNG(TrialSeed(o.Seed, trial))
	if o.Streamed {
		return workload.NewStream(wcfg, matrix, rng)
	}
	return workload.NewSource(wcfg, matrix, rng)
}

// Point is one x-position of one series in a figure.
type Point struct {
	Series string // series label (heuristic name, configuration, ...)
	Label  string // x-axis label ("19k", "λ=0.9", ...)

	Robustness stats.CI // % tasks completed on time
	Variance   stats.CI // variance of per-type completion % (fairness)
	CostPerPct stats.CI // $ per robustness point

	Trials []metrics.TrialStats
}

// NewPoint aggregates trial statistics into a Point.
func NewPoint(series, label string, trials []metrics.TrialStats) Point {
	return Point{
		Series:     series,
		Label:      label,
		Robustness: stats.Confidence95(metrics.RobustnessValues(trials)),
		Variance:   stats.Confidence95(metrics.VarianceValues(trials)),
		CostPerPct: stats.Confidence95(metrics.CostValues(trials)),
		Trials:     trials,
	}
}

// Figure is a regenerated paper figure: a named set of points.
type Figure struct {
	Name    string
	Caption string
	Points  []Point
}

// RobustnessTable renders the figure's robustness series as a text table.
func (f *Figure) RobustnessTable() *report.Table {
	t := report.NewTable(fmt.Sprintf("%s — %s", f.Name, f.Caption),
		"series", "x", "robustness % (mean ± 95% CI)")
	for _, p := range f.Points {
		t.AddRow(p.Series, p.Label, report.FormatCI(p.Robustness.Mean, p.Robustness.HalfSpan))
	}
	return t
}

// CostTable renders the figure's cost series (millidollars per robustness
// point).
func (f *Figure) CostTable() *report.Table {
	t := report.NewTable(fmt.Sprintf("%s — %s", f.Name, f.Caption),
		"series", "x", "cost m$ / robustness pct (mean ± 95% CI)")
	for _, p := range f.Points {
		t.AddRow(p.Series, p.Label, report.FormatCIPrec(p.CostPerPct.Mean, p.CostPerPct.HalfSpan, 3))
	}
	return t
}

// FairnessTable renders variance-of-type-completions plus robustness.
func (f *Figure) FairnessTable() *report.Table {
	t := report.NewTable(fmt.Sprintf("%s — %s", f.Name, f.Caption),
		"series", "x", "type-completion variance", "robustness %")
	for _, p := range f.Points {
		t.AddRow(p.Series, p.Label,
			report.FormatCI(p.Variance.Mean, p.Variance.HalfSpan),
			report.FormatCI(p.Robustness.Mean, p.Robustness.HalfSpan))
	}
	return t
}

// RobustnessChart renders the figure's robustness points as an ASCII bar
// chart for terminal eyeballing.
func (f *Figure) RobustnessChart() *report.Chart {
	c := report.NewChart(fmt.Sprintf("%s — %s", f.Name, f.Caption), "%")
	for _, p := range f.Points {
		c.AddWithError(p.Series+" @"+p.Label, p.Robustness.Mean, p.Robustness.HalfSpan)
	}
	return c
}
