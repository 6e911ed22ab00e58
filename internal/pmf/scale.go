package pmf

import (
	"fmt"
	"math"
)

// ScaleTicks returns the distribution of ceil(X · factor) where p is the
// distribution of a duration X: the execution-time profile of a machine
// running factor× slower than nominal (factor > 1) or faster (factor < 1).
// The scenario engine uses it to derive degradation-adjusted PET entries —
// every impulse tick is stretched by the machine's current speed factor
// (minimum 1 tick: an execution can never take zero time), with mass merged
// when distinct ticks collide. factor == 1 returns p itself, so the nominal
// path costs nothing and stays bit-identical to a scenario-free run.
func ScaleTicks(p *PMF, factor float64) *PMF {
	if factor == 1 || p.IsZero() {
		return p
	}
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("pmf: ScaleTicks with invalid factor %v", factor))
	}
	lo := scaleTick(p.start, factor)
	hi := scaleTick(p.End(), factor)
	probs := make([]float64, hi-lo+1)
	for i, v := range p.probs {
		if v == 0 {
			continue
		}
		t := scaleTick(p.start+int64(i), factor)
		probs[t-lo] += v
	}
	return wrap(lo, probs)
}

// scaleTick stretches one duration tick by factor, clamping to at least 1.
func scaleTick(t int64, factor float64) int64 {
	s := int64(math.Ceil(float64(t) * factor))
	if s < 1 {
		s = 1
	}
	return s
}

// ScaleDur stretches an integer duration by a machine speed factor using the
// same rounding as ScaleTicks, so the simulator's ground-truth run times and
// the heuristics' scaled profiles agree on what a degraded machine does.
// Non-positive durations pass through (no progress is no progress at any
// speed).
func ScaleDur(d int64, factor float64) int64 {
	if factor == 1 || d <= 0 {
		return d
	}
	return scaleTick(d, factor)
}
