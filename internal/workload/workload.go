// Package workload synthesizes the dynamic task streams driving every
// experiment: per-type gamma arrival processes, deadlines with the paper's
// slack rule δ = arrival + avg_type + β·avg_all, and pre-sampled
// ground-truth execution times.
package workload

import (
	"fmt"
	"math"

	"taskprune/internal/pet"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// Config parameterizes one generated workload trial.
type Config struct {
	// NumTasks is the number of tasks in the trial (paper: 800).
	NumTasks int
	// Rate is the aggregate mean arrival rate in tasks per tick across all
	// types. Use RateForLevel to derive it from a paper-style
	// oversubscription level label.
	Rate float64
	// VarFrac sets the variance of each type's inter-arrival gamma
	// distribution as a fraction of its mean (paper: 0.10 except in the
	// arrival-variance study).
	VarFrac float64
	// Beta is the deadline slack coefficient β in
	// δ_i = arr_i + avg_i + β·avg_all.
	Beta float64
	// Bursts, when non-empty, are arrival-rate burst windows (scenario
	// engine): while a type's arrival clock sits inside a window, its
	// inter-arrival gaps shrink by the window's factor. The number of RNG
	// draws is unchanged, so adding a burst never desynchronizes the
	// execution-time sampling stream.
	Bursts []Burst
	// RateFn, when non-nil, is a pluggable arrival-rate shape (step, ramp,
	// sinusoidal diurnal, ...) applied on top of Bursts: each gap is divided
	// by RateFn(clock)·factorAt(Bursts, clock). See RateFunc for the
	// contract. Like Bursts, it never changes how many RNG values a stream
	// draws per arrival.
	RateFn RateFunc
}

// Burst is one arrival-rate burst window: gaps drawn while the arrival
// clock is in [Start, End) are divided by Factor (> 1 means a surge,
// < 1 a lull).
type Burst struct {
	Start  int64
	End    int64
	Factor float64
}

// factorAt returns the burst factor in effect at the given arrival clock
// (1 outside every window; overlapping windows multiply).
func factorAt(bursts []Burst, clock float64) float64 {
	f := 1.0
	for _, b := range bursts {
		if clock >= float64(b.Start) && clock < float64(b.End) {
			f *= b.Factor
		}
	}
	return f
}

// Validate reports configuration errors early.
func (c Config) Validate() error { return c.validate(false) }

// validate is Validate with an escape hatch for the pure streaming source,
// where NumTasks is an emission limit and 0 means unbounded.
func (c Config) validate(allowUnbounded bool) error {
	if c.NumTasks < 0 || (c.NumTasks == 0 && !allowUnbounded) {
		return fmt.Errorf("workload: NumTasks must be positive, got %d", c.NumTasks)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("workload: Rate must be positive, got %v", c.Rate)
	}
	if c.VarFrac < 0 {
		return fmt.Errorf("workload: VarFrac must be non-negative, got %v", c.VarFrac)
	}
	if c.Beta < 0 {
		return fmt.Errorf("workload: Beta must be non-negative, got %v", c.Beta)
	}
	for i, b := range c.Bursts {
		if b.Start < 0 || b.End <= b.Start {
			return fmt.Errorf("workload: burst %d window [%d,%d) is malformed", i, b.Start, b.End)
		}
		if !(b.Factor > 0) || math.IsInf(b.Factor, 0) {
			return fmt.Errorf("workload: burst %d factor must be positive and finite, got %v", i, b.Factor)
		}
	}
	return nil
}

// Generate builds one workload trial: NumTasks tasks with types, arrival
// times, deadlines, and pre-sampled true execution times on every machine
// of the PET matrix. Following the paper, each of the matrix's task types
// gets an independent gamma arrival stream whose mean inter-arrival time is
// numTypes/Rate; the streams are merged lazily and the first NumTasks
// emissions kept. Generate drains the replay-mode streaming source
// (NewSource), so the slice it returns is the stream's emission order;
// unlike the historical generate-all-then-sort implementation, no type is
// ever truncated to NumTasks/nTypes+2 of the earliest arrivals — under a
// strong burst the merged prefix now carries the true (skewed) type mix
// instead of a silently clipped one.
func Generate(cfg Config, matrix *pet.Matrix, rng *stats.RNG) ([]*task.Task, error) {
	src, err := NewSource(cfg, matrix, rng)
	if err != nil {
		return nil, err
	}
	all := make([]*task.Task, 0, cfg.NumTasks)
	for {
		t, ok := src.Next()
		if !ok {
			return all, nil
		}
		all = append(all, t)
	}
}

// DeadlineSpans returns each task type's deadline slack under the paper's
// rule δ = arrival + avg_type + β·avg_all: the type's mean execution time
// across machines plus beta times the matrix's grand mean, rounded. The
// generated streams and the serve daemon's stamped submissions both use
// it.
func DeadlineSpans(matrix *pet.Matrix, beta float64) []int64 {
	spans := make([]int64, matrix.NumTypes())
	avgAll := matrix.GrandMean()
	for ti := range spans {
		spans[ti] = int64(matrix.TypeMeanAcrossMachines(task.Type(ti)) + beta*avgAll + 0.5)
	}
	return spans
}

// MustGenerate is Generate for known-good configurations.
func MustGenerate(cfg Config, matrix *pet.Matrix, rng *stats.RNG) []*task.Task {
	ts, err := Generate(cfg, matrix, rng)
	if err != nil {
		panic(err)
	}
	return ts
}
