package heuristics

import (
	"math"

	"taskprune/internal/task"
)

// MM is the MinCompletion-MinCompletion (MinMin) baseline, used extensively
// in the HC-scheduling literature. Phase one pairs each task with the
// machine minimizing its expected completion time; phase two commits the
// globally minimum-completion pair; repeat.
type MM struct{}

// Name implements Heuristic.
func (MM) Name() string { return "MM" }

// UsesPruning implements Heuristic.
func (MM) UsesPruning() bool { return false }

// Map implements Heuristic.
func (MM) Map(ctx *Context, batch []*task.Task) Result {
	if len(batch) == 0 {
		return Result{}
	}
	st := newScalarState(ctx)
	if len(st.open) == 0 {
		return Result{}
	}
	out := ctx.Cache.newResult()
	defer func() { ctx.Cache.keepResult(&out) }()
	remaining := ctx.Cache.takeRemaining(batch)
	defer func() { ctx.Cache.putRemaining(remaining) }()
	for len(st.open) > 0 && len(remaining) > 0 {
		bestIdx, bestMi := -1, -1
		bestECT := math.Inf(1)
		for i, t := range remaining {
			mi, ect := st.bestMachine(ctx, t)
			if ect < bestECT {
				bestIdx, bestMi, bestECT = i, mi, ect
			}
		}
		if bestIdx == -1 {
			break
		}
		t := remaining[bestIdx]
		st.commit(ctx, t, bestMi)
		out.Assigned = append(out.Assigned, t)
		remaining = removeTask(remaining, bestIdx)
	}
	return out
}

// MSD is MinCompletion-SoonestDeadline: phase one as MM; phase two commits
// the pair whose task deadline is soonest, breaking ties by minimum
// expected completion time.
type MSD struct{}

// Name implements Heuristic.
func (MSD) Name() string { return "MSD" }

// UsesPruning implements Heuristic.
func (MSD) UsesPruning() bool { return false }

// Map implements Heuristic.
func (MSD) Map(ctx *Context, batch []*task.Task) Result {
	if len(batch) == 0 {
		return Result{}
	}
	st := newScalarState(ctx)
	if len(st.open) == 0 {
		return Result{}
	}
	out := ctx.Cache.newResult()
	defer func() { ctx.Cache.keepResult(&out) }()
	remaining := ctx.Cache.takeRemaining(batch)
	defer func() { ctx.Cache.putRemaining(remaining) }()
	for len(st.open) > 0 && len(remaining) > 0 {
		bestIdx, bestMi := -1, -1
		bestDeadline := int64(math.MaxInt64)
		bestECT := math.Inf(1)
		for i, t := range remaining {
			mi, ect := st.bestMachine(ctx, t)
			if t.Deadline < bestDeadline || (t.Deadline == bestDeadline && ect < bestECT) {
				bestIdx, bestMi, bestDeadline, bestECT = i, mi, t.Deadline, ect
			}
		}
		if bestIdx == -1 {
			break
		}
		t := remaining[bestIdx]
		st.commit(ctx, t, bestMi)
		out.Assigned = append(out.Assigned, t)
		remaining = removeTask(remaining, bestIdx)
	}
	return out
}

// MMU is MinCompletion-MaxUrgency with urgency U = 1/(δ − E(C)). Phase one
// as MM; phase two commits the most urgent pair. A non-positive slack
// (expected completion at or past the deadline) is treated as infinitely
// urgent, which is exactly why MMU collapses under extreme
// oversubscription: it keeps feeding machines tasks that are already lost.
type MMU struct{}

// Name implements Heuristic.
func (MMU) Name() string { return "MMU" }

// UsesPruning implements Heuristic.
func (MMU) UsesPruning() bool { return false }

// Map implements Heuristic.
func (MMU) Map(ctx *Context, batch []*task.Task) Result {
	if len(batch) == 0 {
		return Result{}
	}
	st := newScalarState(ctx)
	if len(st.open) == 0 {
		return Result{}
	}
	out := ctx.Cache.newResult()
	defer func() { ctx.Cache.keepResult(&out) }()
	remaining := ctx.Cache.takeRemaining(batch)
	defer func() { ctx.Cache.putRemaining(remaining) }()
	for len(st.open) > 0 && len(remaining) > 0 {
		bestIdx, bestMi := -1, -1
		bestUrgency := math.Inf(-1)
		for i, t := range remaining {
			mi, ect := st.bestMachine(ctx, t)
			slack := float64(t.Deadline) - ect
			urgency := math.Inf(1)
			if slack > 0 {
				urgency = 1 / slack
			}
			if urgency > bestUrgency {
				bestIdx, bestMi, bestUrgency = i, mi, urgency
			}
		}
		if bestIdx == -1 {
			break
		}
		t := remaining[bestIdx]
		st.commit(ctx, t, bestMi)
		out.Assigned = append(out.Assigned, t)
		remaining = removeTask(remaining, bestIdx)
	}
	return out
}
