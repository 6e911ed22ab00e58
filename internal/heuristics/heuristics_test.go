package heuristics

import (
	"math"
	"testing"

	"taskprune/internal/machine"
	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/pruner"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// testPET: 2 types × 2 machines with strong, unambiguous affinities:
// type 0 is much faster on machine 0, type 1 on machine 1.
func testPET(t *testing.T) *pet.Matrix {
	t.Helper()
	cfg := pet.BuildConfig{Samples: 400, Bins: 16, MaxImpulses: 16, ShapeLo: 8, ShapeHi: 12}
	m, err := pet.Build([][]float64{
		{10, 50},
		{50, 10},
	}, cfg, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func freshContext(t *testing.T, matrix *pet.Matrix, queueCap int) *Context {
	t.Helper()
	ms := make([]*machine.Machine, matrix.NumMachines())
	for i := range ms {
		ms[i] = machine.New(i, "m", queueCap, 0)
	}
	return &Context{
		Now:         0,
		Machines:    ms,
		PET:         matrix,
		Mode:        pmf.PendingDrop,
		MaxImpulses: 32,
	}
}

func mkTask(id int, typ task.Type, arrival, deadline int64) *task.Task {
	tk := task.New(id, typ, arrival, deadline)
	tk.TrueExec = []int64{1, 1}
	return tk
}

func TestNewByName(t *testing.T) {
	for _, name := range AllNames() {
		h, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if h.Name() != name {
			t.Errorf("Name = %q, want %q", h.Name(), name)
		}
	}
	if _, err := New("NOPE"); err == nil {
		t.Error("unknown heuristic accepted")
	}
}

func TestUsesPruningFlags(t *testing.T) {
	want := map[string]bool{"MM": false, "MSD": false, "MMU": false, "MOC": false, "PAM": true, "PAMF": true}
	for name, w := range want {
		h, _ := New(name)
		if h.UsesPruning() != w {
			t.Errorf("%s.UsesPruning = %v, want %v", name, h.UsesPruning(), w)
		}
	}
}

// TestMMPrefersAffineMachine: with empty queues, MM must map each task type
// to its fast machine.
func TestMMPrefersAffineMachine(t *testing.T) {
	matrix := testPET(t)
	ctx := freshContext(t, matrix, 6)
	batch := []*task.Task{mkTask(0, 0, 0, 1000), mkTask(1, 1, 0, 1000)}
	res := MM{}.Map(ctx, batch)
	if len(res.Assigned) != 2 {
		t.Fatalf("assigned %d, want 2", len(res.Assigned))
	}
	for _, tk := range res.Assigned {
		want := matrix.BestMachine(tk.Type)
		if tk.Machine != want {
			t.Errorf("type %d mapped to machine %d, want %d", tk.Type, tk.Machine, want)
		}
	}
}

// TestMMMinCompletionOrder: MM commits the globally smallest completion
// first. Machine 1 starts with a backlog, so the type-1 task's best
// completion (~20) loses to the type-0 task on the idle machine 0 (~10).
func TestMMMinCompletionOrder(t *testing.T) {
	matrix := testPET(t)
	ctx := freshContext(t, matrix, 6)
	if err := ctx.Machines[1].Enqueue(mkTask(99, 1, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	slower := mkTask(0, 1, 0, 1000)
	faster := mkTask(1, 0, 0, 1000)
	res := MM{}.Map(ctx, []*task.Task{slower, faster})
	if len(res.Assigned) != 2 {
		t.Fatalf("assigned %d, want 2", len(res.Assigned))
	}
	if res.Assigned[0] != faster {
		t.Error("MM did not commit the minimum-completion task first")
	}
}

func TestMMRespectsQueueCapacity(t *testing.T) {
	matrix := testPET(t)
	ctx := freshContext(t, matrix, 2) // 2 slots per machine, 4 total
	var batch []*task.Task
	for i := 0; i < 10; i++ {
		batch = append(batch, mkTask(i, task.Type(i%2), 0, 1000))
	}
	res := MM{}.Map(ctx, batch)
	if len(res.Assigned) != 4 {
		t.Errorf("assigned %d, want 4 (queue capacity)", len(res.Assigned))
	}
	for _, m := range ctx.Machines {
		if m.QueueLen() > 2 {
			t.Errorf("machine %d overfilled: %d", m.ID, m.QueueLen())
		}
	}
}

// TestMSDPrefersSoonestDeadline: with one free slot, the sooner-deadline
// task goes first even if another completes faster.
func TestMSDPrefersSoonestDeadline(t *testing.T) {
	matrix := testPET(t)
	ctx := freshContext(t, matrix, 6)
	urgent := mkTask(0, 1, 0, 100) // slow type but urgent
	relaxed := mkTask(1, 0, 0, 5000)
	res := MSD{}.Map(ctx, []*task.Task{relaxed, urgent})
	if len(res.Assigned) != 2 {
		t.Fatalf("assigned %d, want 2", len(res.Assigned))
	}
	if res.Assigned[0] != urgent {
		t.Error("MSD did not commit the soonest-deadline task first")
	}
}

// TestMMUPrefersMaxUrgency: the task with the smallest positive slack goes
// first; non-positive slack is infinitely urgent.
func TestMMUPrefersMaxUrgency(t *testing.T) {
	matrix := testPET(t)
	ctx := freshContext(t, matrix, 6)
	tight := mkTask(0, 0, 0, 14) // slack ≈ 4 on its fast machine
	loose := mkTask(1, 1, 0, 500)
	res := MMU{}.Map(ctx, []*task.Task{loose, tight})
	if res.Assigned[0] != tight {
		t.Error("MMU did not commit the most urgent task first")
	}
	doomed := mkTask(2, 0, 0, 1) // slack < 0: infinite urgency
	res2 := MMU{}.Map(ctx, []*task.Task{mkTask(3, 0, 0, 400), doomed})
	if res2.Assigned[0] != doomed {
		t.Error("MMU did not prioritize the infinitely urgent (doomed) task")
	}
}

// TestMOCCullsHopelessTasks: tasks with sub-threshold robustness stay
// unmapped. The hopeless task's success bound lies below the culling
// threshold on every machine, so the bounded phase one culls it without
// one evaluation or cache row; NaiveEval evaluates it and culls it too.
func TestMOCCullsHopelessTasks(t *testing.T) {
	matrix := testPET(t)
	for _, naive := range []bool{false, true} {
		ctx := freshContext(t, matrix, 6)
		ctx.Cache = NewEvalCache()
		ctx.NaiveEval = naive
		hopeless := mkTask(0, 0, 0, 2) // deadline 2 with ~10-tick exec: robustness ≈ 0
		fine := mkTask(1, 1, 0, 1000)
		res := NewMOC(0.30).Map(ctx, []*task.Task{hopeless, fine})
		if len(res.Assigned) != 1 || res.Assigned[0] != fine {
			t.Errorf("naive=%v: MOC assigned %v, want only the viable task", naive, res.Assigned)
		}
		if len(res.Culled) != 1 || res.Culled[0] != hopeless {
			t.Errorf("naive=%v: MOC culled %v, want the hopeless task", naive, res.Culled)
		}
		if hopeless.State != task.StatePending {
			t.Errorf("naive=%v: culled task state = %v, want pending (stays in batch)", naive, hopeless.State)
		}
		if _, row := ctx.Cache.evals[hopeless.ID]; !naive && row {
			t.Error("bounded phase one evaluated a hopeless pair")
		}
	}
}

// TestMOCMapsByRobustness: each type lands on its affine machine where
// robustness is maximal.
func TestMOCMapsByRobustness(t *testing.T) {
	matrix := testPET(t)
	ctx := freshContext(t, matrix, 6)
	batch := []*task.Task{mkTask(0, 0, 0, 60), mkTask(1, 1, 0, 60)}
	res := NewMOC(0.30).Map(ctx, batch)
	if len(res.Assigned) != 2 {
		t.Fatalf("assigned %d, want 2", len(res.Assigned))
	}
	for _, tk := range res.Assigned {
		if tk.Machine != matrix.BestMachine(tk.Type) {
			t.Errorf("type %d on machine %d, want %d", tk.Type, tk.Machine, matrix.BestMachine(tk.Type))
		}
	}
}

// pamContext attaches a pruner (defer 90%, drop 50%) to a fresh context.
func pamContext(t *testing.T, matrix *pet.Matrix, queueCap int) *Context {
	ctx := freshContext(t, matrix, queueCap)
	ctx.Mode = pmf.Evict
	p := pruner.New(pruner.DefaultConfig())
	ctx.Pruner = p
	return ctx
}

// TestPAMDefersLowRobustnessTasks: a task that cannot clear the 90% defer
// bar is returned as deferred, not mapped.
func TestPAMDefersLowRobustnessTasks(t *testing.T) {
	matrix := testPET(t)
	ctx := pamContext(t, matrix, 6)
	// Deadline 12 with mean-10 execution: robustness well below 90%.
	marginal := mkTask(0, 0, 0, 12)
	safe := mkTask(1, 1, 0, 1000)
	res := PAM{}.Map(ctx, []*task.Task{marginal, safe})
	if len(res.Assigned) != 1 || res.Assigned[0] != safe {
		t.Errorf("assigned = %v, want only the safe task", res.Assigned)
	}
	if len(res.Deferred) != 1 || res.Deferred[0] != marginal {
		t.Errorf("deferred = %v, want the marginal task", res.Deferred)
	}
	if marginal.Defers != 1 {
		t.Errorf("Defers = %d, want 1", marginal.Defers)
	}
}

// TestPAMSkipsHopelessPairs: a task whose success bound lies below the
// defer threshold on every machine is deferred, with the usual deferral
// bookkeeping, without one evaluation or cache row; NaiveEval evaluates
// every pair and defers it too.
func TestPAMSkipsHopelessPairs(t *testing.T) {
	matrix := testPET(t)
	for _, naive := range []bool{false, true} {
		ctx := pamContext(t, matrix, 6)
		ctx.Cache = NewEvalCache()
		ctx.NaiveEval = naive
		hopeless := mkTask(0, 0, 0, 2) // deadline 2 with ~10-tick exec
		res := PAM{}.Map(ctx, []*task.Task{hopeless})
		if len(res.Assigned) != 0 || len(res.Deferred) != 1 || hopeless.Defers != 1 {
			t.Fatalf("naive=%v: assigned/deferred = %d/%d, Defers = %d, want 0/1/1",
				naive, len(res.Assigned), len(res.Deferred), hopeless.Defers)
		}
		if _, row := ctx.Cache.evals[hopeless.ID]; !naive && (row || ctx.Cache.Misses() != 0) {
			t.Errorf("bounded phase one evaluated a hopeless pair (row %v, %d misses)", row, ctx.Cache.Misses())
		}
	}
}

// TestPAMMapsGoodTasks: with generous deadlines everything maps, to the
// affine machines.
func TestPAMMapsGoodTasks(t *testing.T) {
	matrix := testPET(t)
	ctx := pamContext(t, matrix, 6)
	batch := []*task.Task{mkTask(0, 0, 0, 1000), mkTask(1, 1, 0, 1000)}
	res := PAM{}.Map(ctx, batch)
	if len(res.Assigned) != 2 || len(res.Deferred) != 0 {
		t.Fatalf("assigned/deferred = %d/%d, want 2/0", len(res.Assigned), len(res.Deferred))
	}
}

// TestPAMDeferralFreesSlotsForViableTasks: PAM's deferral means a viable
// task maps even when it arrived behind many hopeless ones.
func TestPAMDeferralFreesSlotsForViableTasks(t *testing.T) {
	matrix := testPET(t)
	ctx := pamContext(t, matrix, 1) // single slot per machine
	var batch []*task.Task
	for i := 0; i < 5; i++ {
		batch = append(batch, mkTask(i, 0, 0, 11)) // all marginal
	}
	viable := mkTask(9, 0, 0, 1000)
	batch = append(batch, viable)
	res := PAM{}.Map(ctx, batch)
	found := false
	for _, tk := range res.Assigned {
		if tk == viable {
			found = true
		}
	}
	if !found {
		t.Error("viable task not mapped despite deferral of hopeless ones")
	}
}

// TestPAMFUsesSufferage: a type with high sufferage escapes deferral.
func TestPAMFUsesSufferage(t *testing.T) {
	matrix := testPET(t)
	ctx := pamContext(t, matrix, 6)
	fair := pruner.NewFairnessTracker(matrix.NumTypes(), 0.25)
	ctx.Fairness = fair

	// Robustness of this task is ≈ 0.5-0.8 (deadline 14, mean 10): below
	// the 90% defer bar but above 90% − sufferage once the type suffered.
	marginal := mkTask(0, 0, 0, 14)
	res := PAMF{}.Map(ctx, []*task.Task{marginal})
	if len(res.Assigned) != 0 {
		t.Fatalf("unsuffered marginal task mapped; robustness evaluation off")
	}

	for i := 0; i < 3; i++ {
		fair.RecordFailure(0) // sufferage 0.75: defer bar drops to 0.15
	}
	marginal2 := mkTask(1, 0, 0, 14)
	res2 := PAMF{}.Map(ctx, []*task.Task{marginal2})
	if len(res2.Assigned) != 1 {
		t.Error("suffered type still deferred; PAMF sufferage not applied")
	}
}

// TestProbStateCacheConsistency: cached fast evaluations must equal fresh
// ones after commits invalidate a machine, and the machine's success-bound
// summary must follow its new tail.
func TestProbStateCacheConsistency(t *testing.T) {
	matrix := testPET(t)
	ctx := freshContext(t, matrix, 6)
	a := mkTask(0, 0, 0, 500)
	b := mkTask(1, 0, 0, 500)
	st := newProbState(ctx, []*task.Task{a, b})

	evB1 := st.evaluate(ctx, b, 0)
	st.commit(ctx, a, 0) // machine 0's tail changed
	evB2 := st.evaluate(ctx, b, 0)
	fresh := fastEval{
		success: pmf.DropSuccess(st.tails[0], matrix.Profile(0, 0), b.Deadline),
		expFree: pmf.DropExpectedFree(st.tails[0], matrix.Profile(0, 0), b.Deadline, ctx.Mode),
	}
	if evB2 != fresh {
		t.Errorf("post-commit cache = %+v, fresh = %+v", evB2, fresh)
	}
	if evB1 == evB2 {
		t.Error("commit did not invalidate the cached evaluation")
	}
	var want pmf.SuccessBound
	want.Set(st.tails[0])
	if st.bounds[0] != want {
		t.Error("commit left machine 0's success bound summarising the old tail")
	}
}

// TestHeuristicsNoDuplicateAssignment: no heuristic assigns the same task
// twice or leaves a task both assigned and deferred.
func TestHeuristicsNoDuplicateAssignment(t *testing.T) {
	matrix := testPET(t)
	for _, name := range AllNames() {
		h, _ := New(name)
		ctx := freshContext(t, matrix, 3)
		if h.UsesPruning() {
			ctx.Pruner = pruner.New(pruner.DefaultConfig())
			ctx.Mode = pmf.Evict
		}
		var batch []*task.Task
		for i := 0; i < 12; i++ {
			batch = append(batch, mkTask(i, task.Type(i%2), 0, int64(40+20*i)))
		}
		res := h.Map(ctx, batch)
		seen := map[*task.Task]bool{}
		for _, tk := range res.Assigned {
			if seen[tk] {
				t.Errorf("%s assigned %v twice", name, tk)
			}
			seen[tk] = true
			if tk.Machine < 0 {
				t.Errorf("%s: assigned task has no machine", name)
			}
		}
		for _, tk := range res.Deferred {
			if seen[tk] {
				t.Errorf("%s: task both assigned and deferred", name)
			}
		}
	}
}

// TestHeuristicsHonorFullQueues: nothing maps when all queues are full.
func TestHeuristicsHonorFullQueues(t *testing.T) {
	matrix := testPET(t)
	for _, name := range AllNames() {
		h, _ := New(name)
		ctx := freshContext(t, matrix, 1)
		if h.UsesPruning() {
			ctx.Pruner = pruner.New(pruner.DefaultConfig())
		}
		for _, m := range ctx.Machines {
			if err := m.Enqueue(mkTask(100+m.ID, 0, 0, 1000)); err != nil {
				t.Fatal(err)
			}
		}
		res := h.Map(ctx, []*task.Task{mkTask(0, 0, 0, 1000)})
		if len(res.Assigned) != 0 {
			t.Errorf("%s assigned into full queues", name)
		}
	}
}

// TestRobustnessTieBreak: when two machines offer saturated (1.0)
// robustness, the one with the earlier expected completion wins — tasks
// must not pile onto the lowest-indexed machine.
func TestRobustnessTieBreak(t *testing.T) {
	matrix := testPET(t)
	ctx := freshContext(t, matrix, 6)
	// Machine 0 gets a backlog; machine 1 idle. A type-0 task with a huge
	// deadline has robustness 1.0 on both, but machine 1 frees earlier...
	// for type 0 machine 0 is 10 ticks vs 50 on machine 1, so backlog of
	// two tasks (20 ticks) still leaves machine 0 faster. Use three.
	for i := 0; i < 3; i++ {
		if err := ctx.Machines[0].Enqueue(mkTask(100+i, 0, 0, 100000)); err != nil {
			t.Fatal(err)
		}
	}
	tk := mkTask(0, 0, 0, 100000)
	st := newProbState(ctx, []*task.Task{tk})
	mi, ev, ok := st.bestByRobustness(ctx, tk, math.Inf(-1))
	if !ok {
		t.Fatal("no machine")
	}
	if ev.success < 0.999 {
		t.Fatalf("test premise broken: success %v not saturated", ev.success)
	}
	// Machine 0: ~30 ticks backlog + 10 exec = 40. Machine 1: 50 exec.
	// Machine 0 still wins. Add two more to flip it.
	for i := 0; i < 2; i++ {
		if err := ctx.Machines[0].Enqueue(mkTask(200+i, 0, 0, 100000)); err != nil {
			t.Fatal(err)
		}
	}
	tk2 := mkTask(1, 0, 0, 100000)
	st2 := newProbState(ctx, []*task.Task{tk2})
	mi2, _, _ := st2.bestByRobustness(ctx, tk2, math.Inf(-1))
	if mi == mi2 {
		t.Errorf("tie-break ignored queue depth: picked machine %d both times", mi)
	}
	if mi2 != 1 {
		t.Errorf("with 5-deep backlog on m0 (≈50 ticks), expected m1 (50-tick exec); got %d", mi2)
	}
}

// TestContextSufferageNilSafe: sufferage lookups without a tracker are 0.
func TestContextSufferageNilSafe(t *testing.T) {
	ctx := &Context{}
	if got := ctx.sufferage(3); got != 0 {
		t.Errorf("sufferage = %v, want 0", got)
	}
}
