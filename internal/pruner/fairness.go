package pruner

import (
	"fmt"

	"taskprune/internal/task"
)

// FairnessTracker maintains the per-task-type sufferage values εₑf behind
// PAMF (Section V-D2). A task type's sufferage grows by the fairness
// factor ϑ every time one of its tasks misses (is pruned or blows its
// deadline) and shrinks by ϑ on every on-time completion; it is clamped to
// [0, 1]. The effective pruning threshold for a type is the base threshold
// minus its sufferage, protecting chronically pruned types from further
// pruning.
//
// A zero fairness factor makes the tracker inert, which is exactly how PAM
// (no fairness) is expressed internally.
type FairnessTracker struct {
	factor    float64
	sufferage []float64
}

// NewFairnessTracker creates a tracker for nTypes task types with fairness
// factor ϑ in [0, 1].
func NewFairnessTracker(nTypes int, factor float64) *FairnessTracker {
	if factor < 0 || factor > 1 {
		panic(fmt.Sprintf("pruner: fairness factor out of [0,1]: %v", factor))
	}
	if nTypes <= 0 {
		panic(fmt.Sprintf("pruner: need at least one task type, got %d", nTypes))
	}
	return &FairnessTracker{factor: factor, sufferage: make([]float64, nTypes)}
}

// Sufferage returns εf for the given task type.
func (f *FairnessTracker) Sufferage(t task.Type) float64 {
	return f.sufferage[t]
}

// RecordSuccess lowers the type's sufferage after an on-time completion
// (ε ← ε − ϑ, floored at 0).
func (f *FairnessTracker) RecordSuccess(t task.Type) {
	v := f.sufferage[t] - f.factor
	if v < 0 {
		v = 0
	}
	f.sufferage[t] = v
}

// RecordFailure raises the type's sufferage after a miss or prune
// (ε ← ε + ϑ, capped at 1).
func (f *FairnessTracker) RecordFailure(t task.Type) {
	v := f.sufferage[t] + f.factor
	if v > 1 {
		v = 1
	}
	f.sufferage[t] = v
}

// Snapshot copies the current sufferage vector (for metrics/tracing).
func (f *FairnessTracker) Snapshot() []float64 {
	out := make([]float64, len(f.sufferage))
	copy(out, f.sufferage)
	return out
}
