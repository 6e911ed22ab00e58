package heuristics

import (
	"sort"

	"taskprune/internal/pmf"
	"taskprune/internal/task"
)

// DefaultMOCThreshold is the pre-defined robustness culling threshold of
// the MOC heuristic (paper Section VI-C4: 30%).
const DefaultMOCThreshold = 0.30

// MOC is Max Ontime Completions (Salehi et al., JPDC 2016), the strongest
// baseline: it uses the PET matrix to compute mapping robustness. Phase one
// pairs each task with its highest-robustness machine; a culling phase
// removes pairs under the robustness threshold; the last phase takes the
// three highest-robustness pairs and permutes their commit order to find
// the assignment maximizing overall robustness, committing one pair per
// iteration.
//
// MOC cannot probabilistically drop already-mapped tasks — the paper's
// point is that this inability wastes machine time under oversubscription.
type MOC struct {
	// Threshold is the culling robustness floor.
	Threshold float64
}

// NewMOC builds an MOC instance with the given culling threshold.
func NewMOC(threshold float64) MOC { return MOC{Threshold: threshold} }

// Name implements Heuristic.
func (MOC) Name() string { return "MOC" }

// UsesPruning implements Heuristic.
func (MOC) UsesPruning() bool { return false }

type mocPair struct {
	taskIdx int
	machine int
	ev      fastEval
}

// Map implements Heuristic.
func (h MOC) Map(ctx *Context, batch []*task.Task) Result {
	if len(batch) == 0 {
		return Result{}
	}
	st := newProbState(ctx, batch)
	if len(st.open) == 0 {
		return Result{}
	}
	out := st.cache.newResult()
	defer func() { st.cache.keepResult(&out) }()
	remaining := st.cache.takeRemaining(batch)
	defer func() { st.cache.putRemaining(remaining) }()
	floor := skipFloor(ctx, h.Threshold)
	for len(st.open) > 0 && len(remaining) > 0 {
		// Phase 1: best machine per task by robustness, culling as it goes:
		// a task whose best robustness lies below the threshold is dropped
		// from the system entirely — the paper's MOC maps or drops every
		// batch task ("until all tasks in the batch queue are mapped or
		// dropped"). A kept task's pair indexes the kept task list.
		// Machines that cannot reach the threshold are skipped (skipFloor);
		// a task whose every free machine is skipped comes back with
		// mi = −1 and zero success, and is culled. bestByRobustness cannot
		// report "no free slot" here: the round runs only while a machine is
		// open.
		kept := remaining[:0]
		pairs := st.cache.mpairs[:0]
		for _, t := range remaining {
			mi, ev, _ := st.bestByRobustness(ctx, t, floor)
			if ev.success < h.Threshold {
				out.Culled = append(out.Culled, t)
				continue
			}
			pairs = append(pairs, mocPair{taskIdx: len(kept), machine: mi, ev: ev})
			kept = append(kept, t)
		}
		remaining = kept
		st.cache.mpairs = pairs[:0]
		if len(pairs) == 0 {
			break
		}
		// Final phase: among the top three pairs by robustness, pick the
		// commit whose tentative assignment leaves the highest total
		// robustness across the trio (the paper's small permutation
		// search).
		sort.SliceStable(pairs, func(a, b int) bool {
			return pairs[a].ev.success > pairs[b].ev.success
		})
		top := pairs
		if len(top) > 3 {
			top = top[:3]
		}
		bestPick := 0
		if len(top) > 1 {
			bestTotal := -1.0
			for pick, cand := range top {
				tc := remaining[cand.taskIdx]
				tail := st.arena.ChainStep(st.tails[cand.machine], ctx.entry(tc, cand.machine).PMF, tc.Deadline, ctx.Mode, ctx.MaxImpulses)
				total := cand.ev.success
				for other, p := range top {
					if other == pick {
						continue
					}
					t := remaining[p.taskIdx]
					if p.machine == cand.machine {
						total += pmf.DropSuccess(tail, ctx.entry(t, p.machine).Prof, t.Deadline)
					} else {
						total += p.ev.success
					}
				}
				if total > bestTotal {
					bestTotal, bestPick = total, pick
				}
			}
		}
		chosen := top[bestPick]
		t := remaining[chosen.taskIdx]
		st.commit(ctx, t, chosen.machine)
		out.Assigned = append(out.Assigned, t)
		remaining = removeTask(remaining, chosen.taskIdx)
	}
	return out
}
