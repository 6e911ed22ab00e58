package heuristics

import (
	"math"

	"taskprune/internal/machine"
	"taskprune/internal/pmf"
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

// staleRuleOn reports whether the stale rule applies: Evict mode, a
// pruner (PAM, PAMF) and not NaiveEval. A machine whose memo has the
// current queue version and an executing head, but a key strictly older
// than the current one (the clock passed the head's next impulse), is not
// rebuilt first. Its memo's bound is tested instead, with every deadline
// pushed back by W = S_memo + S_now (chainSlack), for each task type's
// latest-deadline unrestored batch task and each restored one
// (EvalCache.staleRulesOut); the machine is rebuilt only when one of them
// is not below its defer floor, and otherwise builds no tail this event.
//
// The rule is sound. One Evict chain step maps a free tick τ to
// τ ≥ δ ? τ : min(τ+x, δ) for the task's execution time x and deadline δ:
// monotone and 1-Lipschitz in τ. Same version means the same head, origin
// and queue, and the clock only moves forward, so the head conditioned at
// the current key is stochastically later than at the memo's, and so is
// its EvictTail; coupling both chains on the same execution times, the
// uncompacted current chain ends no earlier than the uncompacted memo
// chain. Each Compact moves every unit of mass by less than its group
// width ⌈n/k⌉, n being the dense span of its input, and the map passes
// earlier moves on undiminished, so a compacted chain ends within S =
// Σ(⌈n/k⌉−1) of its uncompacted one. Hence tail_now ≥st tail_memo − W.
// Success Σ_{s<δ} tail(s)·CDF_exec(δ−s) is an expectation of a
// nonincreasing function of the start, so success on tail_now is at most
// success on tail_memo with the deadline at δ+W, which the memo's
// SuccessBound bounds. A ruled-out machine's success therefore lies below
// every batch task's floor, and skipFloor's argument, which needs nothing
// else of a skipped machine, keeps every decision unchanged. MOC keeps
// rebuilding: a PendingDrop step jumps from δ−1+x down to δ and is not
// monotone.
func staleRuleOn(ctx *Context) bool {
	return ctx.Mode == pmf.Evict && ctx.Pruner != nil && !ctx.NaiveEval
}

// chainSlack is S for m's tail chain conditioned at the clock, bounded by
// interval arithmetic without building the chain: the head's conditioned
// support (from the later of the clock and its first tick to its last,
// collapsed onto its deadline by EvictTail), then one evictSpan per
// pending task, each adding its compaction's groupSlack.
func chainSlack(ctx *Context, m *machine.Machine, ex *task.Task, exec *pmf.PMF, origin int64) int64 {
	lo, hi := ctx.Now, ctx.Now
	var s int64
	if ex != nil {
		lo = max(ctx.Now, origin+exec.Start())
		hi = max(lo, origin+exec.End())
		lo, hi = min(lo, ex.Deadline), min(hi, ex.Deadline)
		s = groupSlack(hi-lo+1, ctx.MaxImpulses)
	}
	for _, t := range m.Pending() {
		lo, hi = evictSpan(lo, hi, ctx.PET.Entry(t.Type, m.ID, m.Speed(), t.Consumed).PMF, t.Deadline)
		s += groupSlack(hi-lo+1, ctx.MaxImpulses)
	}
	return s
}

// evictSpan bounds the support of one Evict chain step from a start in
// [lo, hi]: a start before the deadline completes at min(s+x, deadline)
// for x in exec's support, and a later one carries through.
func evictSpan(lo, hi int64, exec *pmf.PMF, deadline int64) (int64, int64) {
	if lo >= deadline {
		return lo, hi
	}
	nlo := min(lo+exec.Start(), deadline)
	if hi >= deadline {
		return nlo, hi
	}
	return nlo, min(hi+exec.End(), deadline)
}

// groupSlack is the most a Compact to k impulses moves any unit of mass of
// a PMF whose dense support spans at most n ticks: its group width ⌈n/k⌉
// less one, and nothing when the PMF already fits.
func groupSlack(n int64, k int) int64 {
	if k <= 0 || n <= int64(k) {
		return 0
	}
	return (n+int64(k)-1)/int64(k) - 1
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
	st := newProbState(ctx, batch)
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
