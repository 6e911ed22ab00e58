// Package pet builds and serves the Probabilistic Execution Time (PET)
// matrix: one discrete PMF per (task type, machine) pair, profiled offline
// from execution-time samples — the model of heterogeneity every mapping
// heuristic in the system consumes.
package pet

import (
	"fmt"

	"taskprune/internal/pmf"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// Entry is one cell of the PET matrix, or a view that Matrix.Entry or a
// belief derives from one. Mean and Shape describe the ground-truth gamma
// behind a nominal entry (SampleExec, the deadline means and the JSON
// writer read them); a derived entry has no gamma behind it and leaves
// them zero. Every scheduling read of a mean is Prof.Mean(), the profiled
// mean.
type Entry struct {
	PMF   *pmf.PMF     // profiled execution-time distribution (normalized)
	Prof  *pmf.Profile // prefix-sum profile of PMF for O(|tail|) evaluations
	Mean  float64      // nominal entries: ground-truth gamma mean
	Shape float64      // nominal entries: ground-truth gamma shape
}

// Matrix is an inconsistently heterogeneous PET matrix: task types × machines.
// The profiled entries are immutable after construction and safe for
// concurrent reads; the degradation-scaled and conditioned views in
// derived.go are derived lazily behind their own lock, so a Matrix may be
// shared across trials even when scenarios degrade machines.
type Matrix struct {
	entries [][]Entry // [taskType][machine]
	derived derivedCache
}

// BuildConfig controls offline PET profiling.
type BuildConfig struct {
	Samples     int     // execution-time samples per entry (paper: 500)
	Bins        int     // histogram bins per entry
	MaxImpulses int     // PMF compaction bound (0 = no compaction)
	ShapeLo     float64 // gamma shape lower bound (paper: 1)
	ShapeHi     float64 // gamma shape upper bound (paper: 20)
}

// DefaultBuildConfig mirrors the paper's profiling methodology.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{
		Samples:     500,
		Bins:        32,
		MaxImpulses: pmf.DefaultMaxImpulses,
		ShapeLo:     1,
		ShapeHi:     20,
	}
}

// Build profiles a PET matrix from a matrix of mean execution times
// (means[taskType][machine], in ticks). Each entry samples cfg.Samples
// gamma variates with the entry's mean and a shape drawn uniformly from
// [ShapeLo, ShapeHi], histograms them, and converts the histogram to a
// compacted PMF.
func Build(means [][]float64, cfg BuildConfig, rng *stats.RNG) (*Matrix, error) {
	if len(means) == 0 || len(means[0]) == 0 {
		return nil, fmt.Errorf("pet: empty mean matrix")
	}
	if cfg.Samples <= 0 || cfg.Bins <= 0 {
		return nil, fmt.Errorf("pet: Samples and Bins must be positive (got %d, %d)", cfg.Samples, cfg.Bins)
	}
	if cfg.ShapeLo <= 0 || cfg.ShapeHi < cfg.ShapeLo {
		return nil, fmt.Errorf("pet: invalid shape range [%v, %v]", cfg.ShapeLo, cfg.ShapeHi)
	}
	nm := len(means[0])
	m := &Matrix{entries: make([][]Entry, len(means))}
	for ti, row := range means {
		if len(row) != nm {
			return nil, fmt.Errorf("pet: ragged mean matrix at row %d", ti)
		}
		m.entries[ti] = make([]Entry, nm)
		for mi, mean := range row {
			if mean <= 0 {
				return nil, fmt.Errorf("pet: non-positive mean at (%d,%d)", ti, mi)
			}
			shape := rng.UniformRange(cfg.ShapeLo, cfg.ShapeHi)
			samples := rng.GammaSamples(cfg.Samples, mean, shape)
			p := pmf.FromSamples(samples, cfg.Bins)
			if cfg.MaxImpulses > 0 {
				p = (*pmf.Arena)(nil).Compact(p, cfg.MaxImpulses)
			}
			m.entries[ti][mi] = Entry{PMF: p, Prof: pmf.NewProfile(p), Mean: mean, Shape: shape}
		}
	}
	return m, nil
}

// MustBuild is Build for statically known-good inputs; it panics on error.
func MustBuild(means [][]float64, cfg BuildConfig, rng *stats.RNG) *Matrix {
	m, err := Build(means, cfg, rng)
	if err != nil {
		panic(err)
	}
	return m
}

// NumTypes returns the number of task types (matrix rows).
func (m *Matrix) NumTypes() int { return len(m.entries) }

// NumMachines returns the number of machines (matrix columns).
func (m *Matrix) NumMachines() int {
	if len(m.entries) == 0 {
		return 0
	}
	return len(m.entries[0])
}

// PMF returns the profiled execution-time PMF of task type t on machine mi.
func (m *Matrix) PMF(t task.Type, mi int) *pmf.PMF { return m.entries[t][mi].PMF }

// Profile returns the prefix-sum execution profile of type t on machine mi.
func (m *Matrix) Profile(t task.Type, mi int) *pmf.Profile { return m.entries[t][mi].Prof }

// SampleExec draws a ground-truth execution time (in ticks, >= 1) for one
// task instance of type t on machine mi from the same gamma distribution
// the PET was profiled from.
func (m *Matrix) SampleExec(rng *stats.RNG, t task.Type, mi int) int64 {
	e := m.entries[t][mi]
	v := int64(rng.GammaMeanShape(e.Mean, e.Shape) + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// TypeMeanAcrossMachines returns the mean execution time of type t averaged
// over all machines; the workload generator uses it to set deadlines
// (avg_i in δ = arr + avg_i + β·avg_all).
func (m *Matrix) TypeMeanAcrossMachines(t task.Type) float64 {
	row := m.entries[t]
	var s float64
	for _, e := range row {
		s += e.Mean
	}
	return s / float64(len(row))
}

// GrandMean returns the mean execution time over all entries (avg_all).
func (m *Matrix) GrandMean() float64 {
	var s float64
	var n int
	for _, row := range m.entries {
		for _, e := range row {
			s += e.Mean
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// BestMachine returns the machine with the smallest mean execution time for
// type t (used in workload sanity checks and diagnostics).
func (m *Matrix) BestMachine(t task.Type) int {
	best, bestMean := 0, m.entries[t][0].Mean
	for mi, e := range m.entries[t] {
		if e.Mean < bestMean {
			best, bestMean = mi, e.Mean
		}
	}
	return best
}
