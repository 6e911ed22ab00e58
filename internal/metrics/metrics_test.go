package metrics

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// mkExit builds a finished task for Collect tests.
func mkExit(id int, typ task.Type, state task.State, finish int64) *task.Task {
	t := task.New(id, typ, 0, 1000)
	t.State = state
	t.Finish = finish
	return t
}

// Collect is the sort-based reference for Stream: it computes TrialStats
// from the exit-ordered finished tasks of one trial. nTypes sizes the
// per-type slices; trim tasks are removed from each end of the exit order
// (clamped so a small trial still yields a window). totalCost is the
// machine-time dollar cost of the whole trial.
func Collect(finished []*task.Task, nTypes, trim int, totalCost float64) TrialStats {
	st := TrialStats{
		Total:            len(finished),
		PerTypeWindow:    make([]int, nTypes),
		PerTypeCompleted: make([]int, nTypes),
		PerTypePct:       make([]float64, nTypes),
		TotalCost:        totalCost,
	}
	window := trimWindow(finished, trim)
	st.Window = len(window)
	for _, t := range window {
		st.PerTypeWindow[t.Type]++
		st.TotalDefers += t.Defers
		switch t.State {
		case task.StateCompleted:
			st.Completed++
			st.PerTypeCompleted[t.Type]++
		case task.StateMissed:
			st.Missed++
		case task.StateDropped:
			st.Dropped++
		case task.StateApprox:
			st.Approx++
		default:
			panic(fmt.Sprintf("metrics: unfinished task in exit list: %v", t))
		}
	}
	if st.Window > 0 {
		st.RobustnessPct = 100 * float64(st.Completed) / float64(st.Window)
		st.QualityPct = 100 * (float64(st.Completed) + ApproxQualityWeight*float64(st.Approx)) / float64(st.Window)
	}
	var pcts []float64
	for ti := 0; ti < nTypes; ti++ {
		if st.PerTypeWindow[ti] == 0 {
			continue
		}
		p := 100 * float64(st.PerTypeCompleted[ti]) / float64(st.PerTypeWindow[ti])
		st.PerTypePct[ti] = p
		pcts = append(pcts, p)
	}
	st.TypeVariancePct = stats.PopVariance(pcts)
	if st.RobustnessPct > 0 {
		st.CostPerPct = totalCost / st.RobustnessPct * 1000 // millidollars
	}
	return st
}

// trimWindow sorts tasks by exit tick (stable on ID) and removes trim tasks
// from each end. If the trial is too small for full trimming, the trim is
// shrunk symmetrically so at least one task remains.
func trimWindow(finished []*task.Task, trim int) []*task.Task {
	ordered := append([]*task.Task(nil), finished...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Finish != ordered[j].Finish {
			return ordered[i].Finish < ordered[j].Finish
		}
		return ordered[i].ID < ordered[j].ID
	})
	if trim < 0 {
		trim = 0
	}
	for len(ordered) <= 2*trim && trim > 0 {
		trim /= 2
	}
	if 2*trim >= len(ordered) {
		return ordered
	}
	return ordered[trim : len(ordered)-trim]
}

// Series aggregates one metric across trials into a mean and 95% CI.
type Series struct {
	Values []float64
	CI     stats.CI
}

// Aggregate computes a Series from per-trial values.
func Aggregate(values []float64) Series {
	return Series{Values: values, CI: stats.Confidence95(values)}
}

func TestCollectBasics(t *testing.T) {
	finished := []*task.Task{
		mkExit(0, 0, task.StateCompleted, 10),
		mkExit(1, 0, task.StateMissed, 20),
		mkExit(2, 1, task.StateCompleted, 30),
		mkExit(3, 1, task.StateDropped, 40),
	}
	st := Collect(finished, 2, 0, 12.0)
	if st.Total != 4 || st.Window != 4 {
		t.Fatalf("Total/Window = %d/%d, want 4/4", st.Total, st.Window)
	}
	if st.Completed != 2 || st.Missed != 1 || st.Dropped != 1 {
		t.Errorf("counts = %d/%d/%d", st.Completed, st.Missed, st.Dropped)
	}
	if st.RobustnessPct != 50 {
		t.Errorf("RobustnessPct = %v, want 50", st.RobustnessPct)
	}
	if st.PerTypePct[0] != 50 || st.PerTypePct[1] != 50 {
		t.Errorf("PerTypePct = %v", st.PerTypePct)
	}
	if st.TypeVariancePct != 0 {
		t.Errorf("variance = %v, want 0 (both types at 50%%)", st.TypeVariancePct)
	}
	if st.TotalCost != 12 {
		t.Errorf("TotalCost = %v", st.TotalCost)
	}
	if math.Abs(st.CostPerPct-12.0/50*1000) > 1e-9 {
		t.Errorf("CostPerPct = %v m$, want %v", st.CostPerPct, 12.0/50*1000)
	}
}

func TestCollectTrimsByExitOrder(t *testing.T) {
	// 10 tasks; trim 2 from each end of *exit* order. Finish times are
	// deliberately shuffled relative to IDs.
	var finished []*task.Task
	for i := 0; i < 10; i++ {
		st := task.StateCompleted
		if i < 2 || i >= 8 { // earliest and latest exits fail
			st = task.StateDropped
		}
		finished = append(finished, mkExit(i, 0, st, int64(100*i)))
	}
	// Shuffle the slice to prove Collect sorts by Finish.
	finished[0], finished[5] = finished[5], finished[0]
	st := Collect(finished, 1, 2, 0)
	if st.Window != 6 {
		t.Fatalf("Window = %d, want 6", st.Window)
	}
	if st.Completed != 6 {
		t.Errorf("Completed = %d, want 6 (all failures trimmed)", st.Completed)
	}
	if st.RobustnessPct != 100 {
		t.Errorf("RobustnessPct = %v, want 100", st.RobustnessPct)
	}
}

func TestCollectSmallTrialShrinksTrim(t *testing.T) {
	finished := []*task.Task{
		mkExit(0, 0, task.StateCompleted, 1),
		mkExit(1, 0, task.StateCompleted, 2),
		mkExit(2, 0, task.StateDropped, 3),
	}
	st := Collect(finished, 1, 100, 0)
	if st.Window == 0 {
		t.Fatal("full trim left no window")
	}
}

func TestCollectVarianceAcrossTypes(t *testing.T) {
	var finished []*task.Task
	// Type 0: 4/4 complete; type 1: 0/4 complete.
	for i := 0; i < 4; i++ {
		finished = append(finished, mkExit(i, 0, task.StateCompleted, int64(i)))
		finished = append(finished, mkExit(4+i, 1, task.StateDropped, int64(10+i)))
	}
	st := Collect(finished, 2, 0, 0)
	// Per-type percentages 100 and 0: population variance 2500.
	if math.Abs(st.TypeVariancePct-2500) > 1e-9 {
		t.Errorf("TypeVariancePct = %v, want 2500", st.TypeVariancePct)
	}
}

func TestCollectIgnoresAbsentTypes(t *testing.T) {
	finished := []*task.Task{mkExit(0, 0, task.StateCompleted, 1)}
	st := Collect(finished, 5, 0, 0)
	// Types 1..4 have no tasks in the window; the variance must consider
	// only type 0 (variance of a single value = 0), not treat absents as 0%.
	if st.TypeVariancePct != 0 {
		t.Errorf("variance = %v, want 0", st.TypeVariancePct)
	}
}

func TestCollectPanicsOnUnfinished(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unfinished task accepted")
		}
	}()
	Collect([]*task.Task{task.New(0, 0, 0, 10)}, 1, 0, 0)
}

func TestCollectZeroRobustnessCost(t *testing.T) {
	finished := []*task.Task{mkExit(0, 0, task.StateDropped, 1)}
	st := Collect(finished, 1, 0, 100)
	if st.CostPerPct != 0 {
		t.Errorf("CostPerPct with zero robustness = %v, want 0 sentinel", st.CostPerPct)
	}
}

func TestAggregateAndExtractors(t *testing.T) {
	trials := []TrialStats{
		{RobustnessPct: 40, TypeVariancePct: 4, CostPerPct: 2},
		{RobustnessPct: 60, TypeVariancePct: 6, CostPerPct: 4},
	}
	if got := RobustnessValues(trials); got[0] != 40 || got[1] != 60 {
		t.Errorf("RobustnessValues = %v", got)
	}
	if got := VarianceValues(trials); got[0] != 4 || got[1] != 6 {
		t.Errorf("VarianceValues = %v", got)
	}
	if got := CostValues(trials); got[0] != 2 || got[1] != 4 {
		t.Errorf("CostValues = %v", got)
	}
	s := Aggregate([]float64{40, 60})
	if s.CI.Mean != 50 {
		t.Errorf("aggregate mean = %v, want 50", s.CI.Mean)
	}
	if s.CI.HalfSpan <= 0 {
		t.Errorf("aggregate half-span = %v, want > 0", s.CI.HalfSpan)
	}
}

func TestCollectCountsDefers(t *testing.T) {
	a := mkExit(0, 0, task.StateCompleted, 1)
	a.Defers = 3
	b := mkExit(1, 0, task.StateDropped, 2)
	b.Defers = 2
	st := Collect([]*task.Task{a, b}, 1, 0, 0)
	if st.TotalDefers != 5 {
		t.Errorf("TotalDefers = %d, want 5", st.TotalDefers)
	}
}
