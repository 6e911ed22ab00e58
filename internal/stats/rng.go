// Package stats provides the statistical substrate used throughout the
// task-pruning simulator: a seedable random number generator, gamma-family
// samplers, histogram construction, descriptive statistics (including the
// bounded sample skewness of paper Eq. 6), and Student-t confidence
// intervals for reporting 30-trial experiment results.
//
// Go's ecosystem lacks a SciPy-equivalent; this package implements the
// small slice of it that the paper's evaluation methodology requires, on
// top of the standard library only.
package stats

import (
	"math/rand"
)

// RNG is a deterministic, seedable source of randomness. Every simulation
// trial owns exactly one RNG so trials are reproducible and independent:
// trial k of an experiment with base seed s uses NewRNG(s + k).
//
// RNG is not safe for concurrent use; the experiment runner gives each
// worker goroutine its own instance.
type RNG struct {
	src *rand.Rand
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child generator from r in a deterministic
// way. It is used to give sub-systems (e.g. workload generation vs. actual
// execution-time draws) decoupled streams so that changing how many values
// one consumer draws does not perturb another consumer's sequence.
func (r *RNG) Split() *RNG {
	return NewRNG(r.src.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// NormFloat64 returns a standard normal variate.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// UniformRange returns a uniform value in [lo, hi). It panics if hi < lo.
func (r *RNG) UniformRange(lo, hi float64) float64 {
	if hi < lo {
		panic("stats: UniformRange with hi < lo")
	}
	return lo + (hi-lo)*r.src.Float64()
}
