package pruner

import (
	"math"
	"testing"
	"testing/quick"

	"taskprune/internal/task"
)

func TestFairnessTrackerLifecycle(t *testing.T) {
	f := NewFairnessTracker(3, 0.05)
	if f.factor != 0.05 {
		t.Errorf("factor = %v, want 0.05", f.factor)
	}
	for ti := 0; ti < 3; ti++ {
		if got := f.Sufferage(task.Type(ti)); got != 0 {
			t.Errorf("initial sufferage[%d] = %v, want 0", ti, got)
		}
	}
	f.RecordFailure(1)
	if got := f.Sufferage(1); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("sufferage after failure = %v, want 0.05", got)
	}
	f.RecordFailure(1)
	if got := f.Sufferage(1); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("sufferage after 2 failures = %v, want 0.10", got)
	}
	f.RecordSuccess(1)
	if got := f.Sufferage(1); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("sufferage after success = %v, want 0.05", got)
	}
	// Other types untouched.
	if f.Sufferage(0) != 0 || f.Sufferage(2) != 0 {
		t.Error("sufferage leaked across types")
	}
}

func TestFairnessClamping(t *testing.T) {
	f := NewFairnessTracker(1, 0.3)
	f.RecordSuccess(0)
	if got := f.Sufferage(0); got != 0 {
		t.Errorf("sufferage floored at %v, want 0", got)
	}
	for i := 0; i < 10; i++ {
		f.RecordFailure(0)
	}
	if got := f.Sufferage(0); got != 1 {
		t.Errorf("sufferage capped at %v, want 1", got)
	}
}

func TestFairnessZeroFactorInert(t *testing.T) {
	f := NewFairnessTracker(2, 0)
	f.RecordFailure(0)
	f.RecordSuccess(1)
	if f.Sufferage(0) != 0 || f.Sufferage(1) != 0 {
		t.Error("zero-factor tracker changed state")
	}
}

func TestFairnessConstruction(t *testing.T) {
	for _, f := range []func(){
		func() { NewFairnessTracker(0, 0.1) },
		func() { NewFairnessTracker(3, -0.1) },
		func() { NewFairnessTracker(3, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid tracker construction did not panic")
				}
			}()
			f()
		}()
	}
}

func TestFairnessSnapshotIsCopy(t *testing.T) {
	f := NewFairnessTracker(2, 0.1)
	f.RecordFailure(0)
	snap := f.Snapshot()
	snap[0] = 99
	if f.Sufferage(0) == 99 {
		t.Error("Snapshot shares storage")
	}
}

// Property: sufferage stays in [0, 1] under any event sequence.
func TestPropSufferageBounded(t *testing.T) {
	f := func(events []bool) bool {
		tr := NewFairnessTracker(1, 0.07)
		for _, success := range events {
			if success {
				tr.RecordSuccess(0)
			} else {
				tr.RecordFailure(0)
			}
			if s := tr.Sufferage(0); s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFairnessInteractionWithPruner: a suffered type gets a lower effective
// drop threshold, protecting it from pruning — the PAMF mechanism.
func TestFairnessInteractionWithPruner(t *testing.T) {
	p := New(DefaultConfig())
	p.ObserveMappingEvent(100) // engage dropping
	tr := NewFairnessTracker(2, 0.25)
	tr.RecordFailure(0)
	tr.RecordFailure(0) // type 0 sufferage 0.5

	rob := 0.45 // below the 0.50 base threshold
	if !p.ShouldDrop(rob, 0, 0, tr.Sufferage(1)) {
		t.Error("unsuffered type not dropped at robustness 0.45")
	}
	if p.ShouldDrop(rob, 0, 0, tr.Sufferage(0)) {
		t.Error("suffered type dropped despite relaxed threshold")
	}
}
