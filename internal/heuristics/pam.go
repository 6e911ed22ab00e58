package heuristics

import (
	"math"

	"taskprune/internal/task"
)

// PAM is the paper's Pruning-Aware Mapper (Section V-D1). Phase one pairs
// each unmapped task with the machine offering the highest robustness;
// tasks whose best robustness falls below the deferring threshold are
// pruned (returned to the batch queue). Phase two commits the pair with
// the lowest expected completion time, breaking ties by shortest expected
// execution time. The dropping stage of the pruning mechanism runs in the
// simulator before Map is called (UsesPruning reports true).
type PAM struct{}

// Name implements Heuristic.
func (PAM) Name() string { return "PAM" }

// UsesPruning implements Heuristic.
func (PAM) UsesPruning() bool { return true }

// Map implements Heuristic.
func (PAM) Map(ctx *Context, batch []*task.Task) Result {
	return pruningMap(ctx, batch)
}

// PAMF is the Fair Pruning Mapper (Section V-D2): PAM plus per-task-type
// sufferage values that relax both pruning thresholds for types that have
// been suffering misses. The sufferage bookkeeping lives in the
// FairnessTracker the simulator exposes via the Context; the mapping logic
// is otherwise identical to PAM.
type PAMF struct{}

// Name implements Heuristic.
func (PAMF) Name() string { return "PAMF" }

// UsesPruning implements Heuristic.
func (PAMF) UsesPruning() bool { return true }

// Map implements Heuristic.
func (PAMF) Map(ctx *Context, batch []*task.Task) Result {
	return pruningMap(ctx, batch)
}

type pamPair struct {
	taskIdx int
	machine int
	ev      fastEval
}

// expFreeTieEps is the absolute tolerance under which two expected
// machine-free times count as tied in phase two. Expected-free values are
// sums of tail-scan products whose exact bits depend on evaluation
// history; an epsilon band (plus the deterministic expected-execution and
// task-ID orderings below it) guarantees cached and freshly computed
// evaluations pick the same winner.
const expFreeTieEps = 1e-9

// skipFloor is the success bound below which phase one skips a machine for
// a task that threshold decides: PAM and PAMF defer a task whose best
// success lies below its defer threshold, and MOC culls one below its
// culling threshold. The floor is the threshold minus a margin of
// (machines+2)·tieEps + 1e-12. NaiveEval is the exhaustive oracle, so it
// scans every machine.
//
// The margin makes skipping invisible. A skipped machine's success lies
// below the floor. The 1e-12 absorbs rounding: the bound (pmf.SuccessBound)
// and DropEval's success each sum one rounded term per tail impulse, so
// each lies within about k·1.1e-16 of its exact value on a k-impulse tail
// (1.4e-14 at 128, the widest compaction bound any sweep runs), and the
// exact bound is at least the exact success. bestByRobustness moves its
// running best either by a strict win, to a machine more than tieEps
// better, or by an ε-tie, to a machine within tieEps; an ε-tie raises the
// running best by at most tieEps. The exhaustive and the bounded scan first
// part where the exhaustive one adopts a skipped machine, which needs a
// running best below floor + tieEps. Until both adopt the same machine
// again, every further machine raises the higher of their two running bests
// by at most tieEps, so over the n machines of the fleet both stay below
// floor + n·tieEps: more than 2·tieEps under the threshold, and both defer
// (or cull). An ε-tie chain that starts at a skipped machine therefore
// cannot reach a machine that passes the threshold, and whenever the
// exhaustive scan clears it, the bounded scan ends on the same machine with
// the same evaluation.
func skipFloor(ctx *Context, threshold float64) float64 {
	if ctx.NaiveEval {
		return math.Inf(-1)
	}
	return threshold - (float64(len(ctx.Machines)+2)*tieEps + 1e-12)
}

// deferFloor is skipFloor at task t's defer threshold. Without a pruner
// nothing is deferred, so phase one scans every machine.
func deferFloor(ctx *Context, t *task.Task) float64 {
	if ctx.Pruner == nil {
		return math.Inf(-1)
	}
	return skipFloor(ctx, ctx.Pruner.DeferThresholdFor(ctx.sufferage(t.Type)))
}

// pruningMap is the shared PAM/PAMF mapping loop.
func pruningMap(ctx *Context, batch []*task.Task) Result {
	if len(batch) == 0 {
		return Result{}
	}
	st := newProbState(ctx)
	if len(st.open) == 0 {
		return Result{}
	}
	out := st.cache.newResult()
	defer func() { st.cache.keepResult(&out) }()
	remaining := st.cache.takeRemaining(batch)
	defer func() { st.cache.putRemaining(remaining) }()
	deferred := st.cache.deferred
	clear(deferred)

	for len(st.open) > 0 && len(remaining) > 0 {
		// Phase 1: best machine by robustness; defer sub-threshold tasks.
		// A kept task's pair indexes the post-deferral (kept) task list.
		// Machines that cannot reach a task's defer threshold are skipped
		// (deferFloor); a task whose every free machine is skipped comes
		// back with mi = −1 and is deferred. bestByRobustness cannot report
		// "no free slot" here: the round runs only while a machine is open.
		kept := remaining[:0]
		pairs := st.cache.pairs[:0]
		for _, t := range remaining {
			mi, ev, _ := st.bestByRobustness(ctx, t, deferFloor(ctx, t))
			if ctx.Pruner != nil && (mi < 0 || ctx.Pruner.ShouldDefer(ev.success, ctx.sufferage(t.Type))) {
				if !deferred[t.ID] {
					deferred[t.ID] = true
					out.Deferred = append(out.Deferred, t)
					t.Defers++
				}
				continue
			}
			pairs = append(pairs, pamPair{taskIdx: len(kept), machine: mi, ev: ev})
			kept = append(kept, t)
		}
		remaining = kept
		st.cache.pairs = pairs[:0]
		if len(pairs) == 0 {
			break
		}
		// Phase 2: commit the minimum expected-completion pair. Ties — judged
		// within expFreeTieEps, not by exact float equality — break by
		// shortest expected execution time, then by task ID, so the winner
		// never depends on the float dust of evaluation order.
		best := 0
		for i := 1; i < len(pairs); i++ {
			a, b := pairs[i], pairs[best]
			switch {
			case a.ev.expFree < b.ev.expFree-expFreeTieEps:
				best = i
			case a.ev.expFree < b.ev.expFree+expFreeTieEps:
				ta, tb := remaining[a.taskIdx], remaining[b.taskIdx]
				ea, eb := ctx.entry(ta, a.machine).Prof.Mean(), ctx.entry(tb, b.machine).Prof.Mean()
				if ea < eb || (ea == eb && ta.ID < tb.ID) {
					best = i
				}
			}
		}
		chosen := pairs[best]
		t := remaining[chosen.taskIdx]
		st.commit(ctx, t, chosen.machine)
		out.Assigned = append(out.Assigned, t)
		remaining = removeTask(remaining, chosen.taskIdx)
	}
	return out
}
