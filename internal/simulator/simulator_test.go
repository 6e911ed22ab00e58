package simulator

import (
	"testing"

	"taskprune/internal/heuristics"
	"taskprune/internal/metrics"
	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/pruner"
	"taskprune/internal/stats"
	"taskprune/internal/task"
	"taskprune/internal/workload"
)

// simPET builds a small 2×2 matrix with clear affinities.
func simPET(t *testing.T) *pet.Matrix {
	t.Helper()
	cfg := pet.BuildConfig{Samples: 400, Bins: 16, MaxImpulses: 16, ShapeLo: 8, ShapeHi: 12}
	m, err := pet.Build([][]float64{{10, 40}, {40, 10}}, cfg, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fixedTask builds a task with identical true exec on both machines.
func fixedTask(id int, typ task.Type, arrival, deadline, exec int64) *task.Task {
	tk := task.New(id, typ, arrival, deadline)
	tk.TrueExec = []int64{exec, exec}
	return tk
}

func baseConfig(t *testing.T, name string, matrix *pet.Matrix) Config {
	t.Helper()
	cfg, err := ConfigFor(name, matrix)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestNewValidation(t *testing.T) {
	matrix := simPET(t)
	if _, err := New(Config{}); err == nil {
		t.Error("nil heuristic accepted")
	}
	h, _ := heuristics.New("MM")
	if _, err := New(Config{Heuristic: h}); err == nil {
		t.Error("missing PET accepted")
	}
	if _, err := New(Config{Heuristic: h, PET: matrix, QueueCap: -1}); err == nil {
		t.Error("negative queue capacity accepted")
	}
	if _, err := New(Config{Heuristic: h, PET: matrix, Prices: []float64{1}}); err == nil {
		t.Error("price/machine mismatch accepted")
	}
}

func TestConfigForDefaults(t *testing.T) {
	matrix := simPET(t)
	for _, name := range []string{"MM", "MSD", "MMU", "MOC"} {
		cfg := MustConfigFor(name, matrix)
		if cfg.Pruner != nil || cfg.EvictAtDeadline {
			t.Errorf("%s: baselines must not prune or evict", name)
		}
		if cfg.Mode != pmf.PendingDrop {
			t.Errorf("%s: mode = %v, want pending (scenario B estimates)", name, cfg.Mode)
		}
	}
	for _, name := range []string{"PAM", "PAMF"} {
		cfg := MustConfigFor(name, matrix)
		if cfg.Pruner == nil || !cfg.EvictAtDeadline || cfg.Mode != pmf.Evict {
			t.Errorf("%s: expected full scenario-C pruning config", name)
		}
	}
	if MustConfigFor("PAM", matrix).FairnessFactor != 0 {
		t.Error("PAM must not track fairness")
	}
	if MustConfigFor("PAMF", matrix).FairnessFactor != 0.05 {
		t.Error("PAMF fairness factor != the paper's 5%")
	}
	if _, err := ConfigFor("bogus", matrix); err == nil {
		t.Error("unknown heuristic accepted")
	}
}

// TestSingleTaskCompletes: one task, ample deadline: completed on time and
// accounted.
func TestSingleTaskCompletes(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk := fixedTask(0, 0, 5, 100, 10)
	st, err := sim.Run([]*task.Task{tk})
	if err != nil {
		t.Fatal(err)
	}
	if tk.State != task.StateCompleted {
		t.Fatalf("state = %v, want completed", tk.State)
	}
	if tk.Start != 5 || tk.Finish != 15 {
		t.Errorf("start/finish = %d/%d, want 5/15", tk.Start, tk.Finish)
	}
	if st.Completed != 1 || st.RobustnessPct != 100 {
		t.Errorf("stats = %+v", st)
	}
}

// TestLateTaskMissesWithoutEviction: baselines let late tasks run to
// completion and count them missed.
func TestLateTaskMissesWithoutEviction(t *testing.T) {
	matrix := simPET(t)
	sim, _ := New(baseConfig(t, "MM", matrix))
	tk := fixedTask(0, 0, 0, 5, 20) // will finish at 20, deadline 5
	st, err := sim.Run([]*task.Task{tk})
	if err != nil {
		t.Fatal(err)
	}
	if tk.State != task.StateMissed {
		t.Fatalf("state = %v, want missed", tk.State)
	}
	if tk.Finish != 20 {
		t.Errorf("finish = %d, want 20 (ran to completion)", tk.Finish)
	}
	if st.Missed != 1 {
		t.Errorf("missed = %d", st.Missed)
	}
}

// TestEvictAtDeadline: with scenario-C semantics the executing task is
// killed at its deadline and the machine freed.
func TestEvictAtDeadline(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "PAM", matrix)
	sim, _ := New(cfg)
	doomed := fixedTask(0, 0, 0, 1000, 30)
	doomed.Deadline = 15 // mapped (robustness fine at t=0? exec mean 10, deadline 15 → ~0.9)... adjusted below
	st, err := sim.Run([]*task.Task{doomed})
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	if doomed.State == task.StateMissed {
		t.Error("scenario C must never produce 'missed' (evicted at deadline instead)")
	}
	if doomed.State == task.StateDropped && doomed.Finish > 15 {
		t.Errorf("evicted at %d, want <= deadline 15", doomed.Finish)
	}
}

// TestFCFSQueueing: two tasks on one machine run in order.
func TestFCFSQueueing(t *testing.T) {
	cfgPET := pet.BuildConfig{Samples: 400, Bins: 16, MaxImpulses: 16, ShapeLo: 8, ShapeHi: 12}
	// Single machine so both tasks share a queue.
	matrix, err := pet.Build([][]float64{{10}}, cfgPET, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, "MM", matrix)
	sim, _ := New(cfg)
	a := task.New(0, 0, 0, 1000)
	a.TrueExec = []int64{10}
	b := task.New(1, 0, 0, 1000)
	b.TrueExec = []int64{10}
	if _, err := sim.Run([]*task.Task{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.State != task.StateCompleted || b.State != task.StateCompleted {
		t.Fatalf("states = %v/%v", a.State, b.State)
	}
	if !(a.Start < b.Start) {
		t.Errorf("FCFS violated: a starts %d, b starts %d", a.Start, b.Start)
	}
	if b.Start < a.Finish {
		t.Errorf("b started at %d before a finished at %d", b.Start, a.Finish)
	}
}

// TestExpiredBatchTaskDropped: a task whose deadline passes in the batch
// queue exits as dropped.
func TestExpiredBatchTaskDropped(t *testing.T) {
	cfgPET := pet.BuildConfig{Samples: 400, Bins: 16, MaxImpulses: 16, ShapeLo: 8, ShapeHi: 12}
	matrix, err := pet.Build([][]float64{{10}}, cfgPET, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := New(baseConfig(t, "MM", matrix))
	// One long task occupies the single machine+queue... queue cap 6 so the
	// second maps too; make the machine busy enough that the third task
	// expires in the batch queue: fill all 6 slots.
	var tasks []*task.Task
	for i := 0; i < 6; i++ {
		tk := task.New(i, 0, 0, 10_000)
		tk.TrueExec = []int64{100}
		tasks = append(tasks, tk)
	}
	victim := task.New(6, 0, 1, 50) // arrives while queues full, expires at 50
	victim.TrueExec = []int64{10}
	tasks = append(tasks, victim)
	if _, err := sim.Run(tasks); err != nil {
		t.Fatal(err)
	}
	if victim.State != task.StateDropped {
		t.Fatalf("victim state = %v, want dropped", victim.State)
	}
	if victim.Machine != -1 {
		t.Errorf("victim was mapped to machine %d", victim.Machine)
	}
}

// TestTrueExecMismatchRejected: tasks must carry one true exec per machine.
func TestTrueExecMismatchRejected(t *testing.T) {
	matrix := simPET(t)
	sim, _ := New(baseConfig(t, "MM", matrix))
	bad := task.New(0, 0, 0, 100)
	bad.TrueExec = []int64{5} // 2 machines
	if _, err := sim.Run([]*task.Task{bad}); err == nil {
		t.Error("mismatched TrueExec accepted")
	}
}

// TestPrunerEngagesUnderOversubscription: at a crushing load, PAM's pruner
// must engage and drop tasks.
func TestPrunerEngagesUnderOversubscription(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "PAM", matrix)
	sim, _ := New(cfg)
	rng := stats.NewRNG(77)
	wcfg := workload.Config{NumTasks: 300, Rate: 0.5, VarFrac: 0.1, Beta: 1.5}
	tasks, err := workload.Generate(wcfg, matrix, rng)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Pruner() == nil {
		t.Fatal("PAM simulator has no pruner")
	}
	if sim.MappingEvents() == 0 {
		t.Error("pruner observed no mapping events")
	}
	if st.Completed+st.Missed+st.Dropped != st.Window {
		t.Error("window accounting broken")
	}
	if st.Dropped == 0 {
		t.Error("no tasks dropped at 7x capacity; pruning apparently inert")
	}
}

// TestAllTasksAccounted: every generated task exits in exactly one terminal
// state, for every heuristic.
func TestAllTasksAccounted(t *testing.T) {
	matrix := simPET(t)
	rng := stats.NewRNG(99)
	wcfg := workload.Config{NumTasks: 200, Rate: 0.15, VarFrac: 0.1, Beta: 2}
	tasks, err := workload.Generate(wcfg, matrix, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range heuristics.AllNames() {
		// Fresh copies per heuristic: simulation mutates tasks.
		fresh := make([]*task.Task, len(tasks))
		for i, tk := range tasks {
			c := task.New(tk.ID, tk.Type, tk.Arrival, tk.Deadline)
			c.TrueExec = tk.TrueExec
			fresh[i] = c
		}
		sim, err := New(baseConfig(t, name, matrix))
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(fresh)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Total != len(fresh) {
			t.Errorf("%s: %d tasks accounted, want %d", name, st.Total, len(fresh))
		}
		for _, tk := range fresh {
			if !tk.Done() {
				t.Errorf("%s: task %d left in state %v", name, tk.ID, tk.State)
			}
			if tk.State == task.StateCompleted && tk.Finish > tk.Deadline {
				t.Errorf("%s: task %d 'completed' after its deadline", name, tk.ID)
			}
		}
	}
}

// TestDeterminism: identical seeds and configs yield identical statistics.
func TestDeterminism(t *testing.T) {
	matrix := simPET(t)
	run := func() metrics.TrialStats {
		rng := stats.NewRNG(123)
		tasks, err := workload.Generate(workload.Config{NumTasks: 150, Rate: 0.2, VarFrac: 0.1, Beta: 2}, matrix, rng)
		if err != nil {
			t.Fatal(err)
		}
		sim, _ := New(baseConfig(t, "PAM", matrix))
		st, err := sim.Run(tasks)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Dropped != b.Dropped || a.Missed != b.Missed {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestCostAccounting: machine busy time is billed.
func TestCostAccounting(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	cfg.Prices = []float64{1.0, 1.0}
	sim, _ := New(cfg)
	tk := fixedTask(0, 0, 0, 1000, 36)
	st, err := sim.Run([]*task.Task{tk})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalCost <= 0 {
		t.Errorf("TotalCost = %v, want > 0", st.TotalCost)
	}
	if st.CostPerPct <= 0 {
		t.Errorf("CostPerPct = %v, want > 0", st.CostPerPct)
	}
}

// TestFairnessTrackerWiring: PAMF updates sufferage on completions.
func TestFairnessTrackerWiring(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "PAMF", matrix)
	sim, _ := New(cfg)
	rng := stats.NewRNG(31)
	tasks, err := workload.Generate(workload.Config{NumTasks: 200, Rate: 0.4, VarFrac: 0.1, Beta: 1.5}, matrix, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(tasks); err != nil {
		t.Fatal(err)
	}
	if sim.fairness == nil {
		t.Fatal("PAMF simulator has no fairness tracker")
	}
	// At this load some type must have accumulated sufferage at some point;
	// at minimum the tracker must be consistent (all values in [0,1]).
	for ti, s := range sim.fairness.Snapshot() {
		if s < 0 || s > 1 {
			t.Errorf("sufferage[%d] = %v out of range", ti, s)
		}
	}
}

// TestStaleCompletionIgnored: when the pruner kills an executing task, its
// scheduled completion event must not corrupt the machine.
func TestStaleCompletionIgnored(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "PAM", matrix)
	// Hair-trigger pruner: drops engage immediately and the executing task
	// is always below threshold.
	pc := pruner.DefaultConfig()
	pc.ToggleOn = 0.0001
	pc.DropThreshold = 1.0
	pc.DeferThreshold = 1.0
	cfg.Pruner = &pc
	sim, _ := New(cfg)
	rng := stats.NewRNG(13)
	tasks, err := workload.Generate(workload.Config{NumTasks: 100, Rate: 0.3, VarFrac: 0.1, Beta: 2}, matrix, rng)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 100 {
		t.Errorf("accounted %d, want 100", st.Total)
	}
}

// TestPrunerConfigInteraction: with pruning disabled entirely (nil
// config), even a pruning-aware heuristic runs without a pruner and prunes
// nothing.
func TestPrunerConfigInteraction(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "PAM", matrix)
	cfg.Pruner = nil // pruning off
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := workload.Generate(workload.Config{NumTasks: 150, Rate: 0.3, VarFrac: 0.1, Beta: 2}, matrix, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(tasks); err != nil {
		t.Fatal(err)
	}
	if sim.Pruner() != nil {
		t.Error("pruner built despite nil config")
	}
	if sim.DroppedByPruner() != 0 {
		t.Errorf("%d tasks pruned without a pruner", sim.DroppedByPruner())
	}
}

// TestPruneExitsBeforeNextVerdict: the pruner judges a queue's tasks one
// at a time, and a dropped task exits before the next is judged, so
// PAMF's sufferage for the tasks behind it already counts the drop. One
// machine at tick 100 runs head a (type 0, hopeless: deadline 101) with b
// (type 0) queued, b's deadline chosen so that its success probability
// behind the dropped head lies in (0, 0.3). With ϑ = 1, a's drop raises
// type 0's sufferage to 1 and b's Eq. 7 threshold to clamp(0.5 − 1 ±
// 0.2) = 0, so b stays; judged before a's exit, b would face a threshold
// of at least 0.3 and go too. Under PAM (no sufferage) both go.
func TestPruneExitsBeforeNextVerdict(t *testing.T) {
	matrix := simPET(t)
	const now = 100
	exec := matrix.PMF(0, 0)
	deadline := int64(-1)
	for tick := exec.Start(); tick <= exec.End(); tick++ {
		if p := exec.CDF(tick); p > 0 && p < 0.3 {
			deadline = now + tick
		}
	}
	if deadline < 0 {
		t.Fatalf("no tick of the type-0 PMF on machine 0 has a CDF in (0, 0.3): %v", exec)
	}
	for _, tc := range []struct {
		name    string
		theta   float64
		dropped int
		b       task.State
	}{{"PAMF", 1, 1, task.StateQueued}, {"PAM", 0, 2, task.StateDropped}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(t, tc.name, matrix)
			cfg.FairnessFactor = tc.theta
			pc := *cfg.Pruner
			pc.ToggleOn = 0 // dropping engages at the first mapping event
			cfg.Pruner = &pc
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim.Begin(nil)
			sim.now = now
			m := sim.Machines()[0]
			a, b := fixedTask(0, 0, 0, now+1, 10), fixedTask(1, 0, 0, deadline, 10)
			for _, tk := range []*task.Task{a, b} {
				if err := m.Enqueue(tk); err != nil {
					t.Fatal(err)
				}
			}
			m.StartNext(now)
			if !sim.pruner.ObserveMappingEvent(0) {
				t.Fatal("pruner not dropping")
			}
			sim.pruneQueues()
			if a.State != task.StateDropped {
				t.Fatalf("hopeless head a is %v, want dropped", a.State)
			}
			if got := sim.DroppedByPruner(); got != tc.dropped || b.State != tc.b {
				t.Fatalf("pruner dropped %d tasks with b %v, want %d with b %v", got, b.State, tc.dropped, tc.b)
			}
		})
	}
}

// TestMappingEventsFire: mapping events occur on arrivals and completions.
func TestMappingEventsFire(t *testing.T) {
	matrix := simPET(t)
	sim, _ := New(baseConfig(t, "MM", matrix))
	tasks := []*task.Task{fixedTask(0, 0, 0, 500, 10), fixedTask(1, 1, 3, 500, 10)}
	if _, err := sim.Run(tasks); err != nil {
		t.Fatal(err)
	}
	// 2 arrivals + 2 completions = 4 mapping events.
	if got := sim.MappingEvents(); got != 4 {
		t.Errorf("MappingEvents = %d, want 4", got)
	}
}
