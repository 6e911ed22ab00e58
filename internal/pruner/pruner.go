// Package pruner implements the paper's pruning mechanism: probabilistic
// task deferring and dropping thresholds (Section V-B, Eq. 7), dynamic
// engagement of dropping via an exponentially weighted moving average of
// deadline misses with Schmitt-trigger hysteresis (Section V-C, Eq. 8),
// and the per-task-type sufferage accounting behind the fairness-aware
// PAMF heuristic (Section V-D).
package pruner

import (
	"fmt"

	"taskprune/internal/stats"
)

// Config holds the pruning-policy knobs. Defaults follow the values the
// paper converges on experimentally.
type Config struct {
	// DropThreshold: tasks in machine queues with success probability at or
	// below this are dropped while dropping is engaged (paper: 0.50).
	DropThreshold float64
	// DeferThreshold: unmapped tasks whose best achievable success
	// probability is below this are deferred to the next mapping event
	// (paper: 0.90; must be >= DropThreshold for sane behaviour).
	DeferThreshold float64
	// Rho scales the Eq. 7 per-task adjustment of the dropping threshold by
	// completion-PMF skewness and queue position. The paper introduces ρ
	// without fixing a value; 0.2 is our calibrated default (ablated in the
	// benches).
	Rho float64
	// Lambda is the Eq. 8 EWMA weight on the most recent mapping event's
	// deadline misses (paper: 0.9 wins).
	Lambda float64
	// ToggleOn is the oversubscription level at which dropping engages
	// (paper: "the dropping toggle is one task").
	ToggleOn float64
	// SchmittSeparation is the relative hysteresis width: dropping
	// disengages at ToggleOn*(1-SchmittSeparation) (paper: 20%).
	SchmittSeparation float64
	// UseSchmitt selects hysteresis; false reproduces the Fig. 4 "default"
	// series with a single on/off threshold.
	UseSchmitt bool
	// PerTaskAdjust enables the Eq. 7 dynamic per-task dropping threshold;
	// false applies the uniform base threshold (an ablation of Section
	// V-B1).
	PerTaskAdjust bool
}

// DefaultConfig returns the configuration the paper's later experiments
// settle on: drop 50%, defer 90%, λ = 0.9, Schmitt trigger on with 20%
// separation, per-task adjustment enabled.
func DefaultConfig() Config {
	return Config{
		DropThreshold:     0.50,
		DeferThreshold:    0.90,
		Rho:               0.2,
		Lambda:            0.9,
		ToggleOn:          1.0,
		SchmittSeparation: 0.20,
		UseSchmitt:        true,
		PerTaskAdjust:     true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.DropThreshold < 0 || c.DropThreshold > 1 {
		return fmt.Errorf("pruner: DropThreshold out of [0,1]: %v", c.DropThreshold)
	}
	if c.DeferThreshold < 0 || c.DeferThreshold > 1 {
		return fmt.Errorf("pruner: DeferThreshold out of [0,1]: %v", c.DeferThreshold)
	}
	if c.Lambda < 0 || c.Lambda > 1 {
		return fmt.Errorf("pruner: Lambda out of [0,1]: %v", c.Lambda)
	}
	if c.SchmittSeparation < 0 || c.SchmittSeparation >= 1 {
		return fmt.Errorf("pruner: SchmittSeparation out of [0,1): %v", c.SchmittSeparation)
	}
	if c.ToggleOn < 0 {
		return fmt.Errorf("pruner: ToggleOn must be non-negative: %v", c.ToggleOn)
	}
	return nil
}

// Pruner tracks the oversubscription state of one simulated system and
// answers the two pruning questions at every mapping event: "should this
// queued task be dropped?" and "should this unmapped task be deferred?".
type Pruner struct {
	cfg      Config
	level    float64 // dτ, the EWMA oversubscription level
	dropping bool    // current Schmitt-trigger state
}

// New creates a pruner. It panics on invalid configuration (catching
// miswired experiments at construction time).
func New(cfg Config) *Pruner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Pruner{cfg: cfg}
}

// ObserveMappingEvent feeds the number of deadline misses since the last
// mapping event (µτ) into the Eq. 8 EWMA and updates the dropping toggle.
// It returns whether dropping is now engaged.
func (p *Pruner) ObserveMappingEvent(missed int) bool {
	p.level = float64(missed)*p.cfg.Lambda + p.level*(1-p.cfg.Lambda)
	if p.cfg.UseSchmitt {
		off := p.cfg.ToggleOn * (1 - p.cfg.SchmittSeparation)
		switch {
		case p.level >= p.cfg.ToggleOn:
			p.dropping = true
		case p.level <= off:
			p.dropping = false
		}
		// Between off and on: hold the previous state (hysteresis).
	} else {
		p.dropping = p.level >= p.cfg.ToggleOn
	}
	return p.dropping
}

// Dropping reports whether dropping mode is currently engaged.
func (p *Pruner) Dropping() bool { return p.dropping }

// Level returns the current EWMA oversubscription level dτ.
func (p *Pruner) Level() float64 { return p.level }

// dropThresholdFor computes the effective dropping threshold for a queued
// task (Eq. 7): base + ρ·(−s)/(κ+1), where s is the bounded skewness of the
// task's completion PMF and κ its queue position (0 = executing). Positive
// skew (likely to finish early) lowers the threshold — the task is
// protected; negative skew raises it — the task is dropped more readily;
// and the effect decays with queue depth. sufferage (PAMF) is subtracted
// before the adjustment. skewness is bounded into [−1, 1] first, NaN
// reading 0, as pmf's BoundedSkewness does. The result is clamped into
// [0, 1].
func (p *Pruner) dropThresholdFor(skewness float64, position int, sufferage float64) float64 {
	base := p.cfg.DropThreshold - sufferage
	if p.cfg.PerTaskAdjust {
		base += p.cfg.Rho * (-stats.BoundSkewness(skewness)) / float64(position+1)
	}
	return clamp01(base)
}

// ShouldDrop decides whether a queued task with the given success
// probability, completion skewness, queue position and type sufferage is
// pruned. Tasks are dropped when robustness <= threshold (the paper drops
// tasks "whose robustness values are less than or equal to the dropping
// threshold").
func (p *Pruner) ShouldDrop(robustness, skewness float64, position int, sufferage float64) bool {
	if !p.dropping {
		return false
	}
	return robustness <= p.dropThresholdFor(skewness, position, sufferage)
}

// DecideBySuccess reports whether the success probability alone decides
// ShouldDrop for a queued task at this position and type sufferage, and if
// so, the verdict. Eq. 7's threshold is monotone in the bounded skewness
// s, in floating point too, so it lies between its values at s = −1 and
// s = +1 whatever ρ's sign: a success at or below both drops the task for
// every skewness, and one above both keeps it. Only a success inside that
// band needs the skewness. The band is a single point when PerTaskAdjust
// is off, and nothing is dropped while dropping is disengaged.
func (p *Pruner) DecideBySuccess(robustness float64, position int, sufferage float64) (drop, decided bool) {
	if !p.dropping {
		return false, true
	}
	lo := p.dropThresholdFor(-1, position, sufferage)
	hi := p.dropThresholdFor(1, position, sufferage)
	if lo > hi {
		lo, hi = hi, lo
	}
	switch {
	case robustness <= lo:
		return true, true
	case robustness > hi:
		return false, true
	}
	return false, false
}

// DeferThresholdFor returns the effective deferring threshold for a task
// type with the given sufferage. Per Section V-B1, deferring applies no
// positional/skewness adjustment — at mapping time the candidate would sit
// at the queue tail and has no tasks behind it yet.
func (p *Pruner) DeferThresholdFor(sufferage float64) float64 {
	return clamp01(p.cfg.DeferThreshold - sufferage)
}

// ShouldDefer decides whether an unmapped task whose best achievable
// success probability is bestRobustness should wait for the next mapping
// event instead of being mapped now.
func (p *Pruner) ShouldDefer(bestRobustness, sufferage float64) bool {
	return bestRobustness < p.DeferThresholdFor(sufferage)
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}
