package simulator

import (
	"reflect"
	"testing"

	"taskprune/internal/scenario"
	"taskprune/internal/stats"
	"taskprune/internal/task"
	"taskprune/internal/trace"
	"taskprune/internal/workload"
)

// churnScenario is the canonical mid-trial churn: machine 1 fails (queue
// requeued), recovers later, and machine 0 is degraded for a stretch.
func churnScenario() *scenario.Scenario {
	return scenario.New("churn").
		FailAt(300, 1, scenario.Requeue).
		RecoverAt(600, 1).
		DegradeAt(200, 0, 2).
		DegradeAt(800, 0, 1)
}

func TestScenarioValidationAtNew(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	cfg.Scenario = scenario.New("bad").FailAt(10, 7, scenario.Requeue) // machine 7 of 2
	if _, err := New(cfg); err == nil {
		t.Error("out-of-fleet scenario accepted")
	}
	cfg.Scenario = scenario.New("bad").DegradeAt(10, 0, -1)
	if _, err := New(cfg); err == nil {
		t.Error("negative degradation factor accepted")
	}
}

// TestScenarioFailureRequeuesTasks: tasks on a failing machine return to
// the batch queue and finish elsewhere.
func TestScenarioFailureRequeuesTasks(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	cfg.Scenario = scenario.New("fail").FailAt(12, 0, scenario.Requeue)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Type 0 prefers machine 0 (mean 10 vs 40): both tasks land there, the
	// failure at tick 12 interrupts the second (and likely the first).
	a, b := fixedTask(0, 0, 0, 10_000, 30), fixedTask(1, 0, 0, 10_000, 30)
	if _, err := sim.Run([]*task.Task{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.State != task.StateCompleted || b.State != task.StateCompleted {
		t.Fatalf("states %v/%v, want completed (requeued tasks must finish on the survivor)", a.State, b.State)
	}
	if sim.Requeued() == 0 {
		t.Error("failure requeued nothing")
	}
	if a.Machine != 1 || b.Machine != 1 {
		t.Errorf("tasks finished on machines %d/%d, want the surviving machine 1", a.Machine, b.Machine)
	}
}

// TestRequeuedTaskExpiresOnTime: a task a machine failure returns to the
// batch exits dropped at the first event past its deadline, even when its
// deadline precedes every deadline the batch and the pending queues held
// when the simulator last looked for expired tasks. On a one-machine
// fleet: A runs from tick 0 (deadline 100); B (deadline 5) waits behind it
// and drops at C's arrival, tick 6, which leaves C (deadline 1000) as the
// earliest pending deadline; the failure at 10 requeues A and C, and the
// recovery at 150 is the first event past A's deadline.
func TestRequeuedTaskExpiresOnTime(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	cfg.Machines = []int{0}
	cfg.Scenario = scenario.New("requeue-expiry").FailAt(10, 0, scenario.Requeue).RecoverAt(150, 0)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := fixedTask(0, 0, 0, 100, 50), fixedTask(1, 0, 0, 5, 50), fixedTask(2, 0, 6, 1000, 20)
	if _, err := sim.Run([]*task.Task{a, b, c}); err != nil {
		t.Fatal(err)
	}
	if b.State != task.StateDropped || b.Finish != 6 {
		t.Fatalf("B exits %v at %d, want dropped at 6", b.State, b.Finish)
	}
	if sim.Requeued() != 2 {
		t.Fatalf("failure requeued %d tasks, want A and C", sim.Requeued())
	}
	if a.State != task.StateDropped || a.Finish != 150 {
		t.Errorf("requeued A (deadline 100) exits %v at %d, want dropped at the recovery, 150", a.State, a.Finish)
	}
	if c.State != task.StateCompleted {
		t.Errorf("C exits %v, want completed after the recovery", c.State)
	}
}

// TestScenarioFailureAtCompletionTick: a task whose genuine completion
// lands on the exact tick of its machine's failure has finished its work —
// it must exit completed, not be requeued or dropped (fleet events are
// scheduled ahead of completion events in the queue's tie order, so the
// failure handler has to look for the boundary case itself).
func TestScenarioFailureAtCompletionTick(t *testing.T) {
	matrix := simPET(t)
	for _, policy := range []scenario.Policy{scenario.Requeue, scenario.Drop} {
		cfg := baseConfig(t, "MM", matrix)
		cfg.Scenario = scenario.New("boundary").FailAt(30, 0, policy)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tk := fixedTask(0, 0, 0, 10_000, 30) // starts at 0 on machine 0, finishes at exactly 30
		if _, err := sim.Run([]*task.Task{tk}); err != nil {
			t.Fatal(err)
		}
		if tk.Machine != 0 {
			t.Skipf("task mapped to machine %d; PET draw changed affinity", tk.Machine)
		}
		if tk.State != task.StateCompleted || tk.Finish != 30 {
			t.Errorf("policy %v: state %v finish %d, want completed at 30", policy, tk.State, tk.Finish)
		}
		if sim.Requeued() != 0 {
			t.Errorf("policy %v: completed task was requeued", policy)
		}
	}
}

// TestStaleEventAfterFailureRestart: a task whose machine fails and
// recovers a tick later restarts on that same machine while the completion
// event of its first run (due at 30) is still queued. The stale event must
// not complete the new run early, whether the run restarts from zero or
// from checkpointed credit.
func TestStaleEventAfterFailureRestart(t *testing.T) {
	matrix := simPET(t)
	for _, tc := range []struct {
		name   string
		policy *scenario.CheckpointPolicy
		finish int64
	}{
		{"none", nil, 13 + 30},                // full restart at 13
		{"periodic", periodic(5, 0), 13 + 20}, // restored at 10 of 30
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(t, "MM", matrix)
			cfg.Machines = []int{0} // a one-machine fleet: the task can only restart there
			cfg.Scenario = scenario.New("blip").FailAt(12, 0, scenario.Requeue).RecoverAt(13, 0)
			cfg.Checkpoint = tc.policy
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tk := fixedTask(0, 0, 0, 10_000, 30)
			if _, err := sim.Run([]*task.Task{tk}); err != nil {
				t.Fatal(err)
			}
			if tk.State != task.StateCompleted || tk.Start != 13 || tk.Finish != tc.finish {
				t.Fatalf("state %v start %d finish %d, want completed from 13 at %d", tk.State, tk.Start, tk.Finish, tc.finish)
			}
		})
	}
}

// TestScenarioFailureDropPolicy: under the drop policy the failing
// machine's tasks exit the system.
func TestScenarioFailureDropPolicy(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	cfg.Scenario = scenario.New("fail-drop").FailAt(12, 0, scenario.Drop)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fixedTask(0, 0, 0, 10_000, 30), fixedTask(1, 0, 0, 10_000, 30)
	if _, err := sim.Run([]*task.Task{a, b}); err != nil {
		t.Fatal(err)
	}
	if sim.Requeued() != 0 {
		t.Error("drop policy requeued tasks")
	}
	dropped := 0
	for _, tk := range []*task.Task{a, b} {
		if !tk.Done() {
			t.Errorf("task %d left in state %v", tk.ID, tk.State)
		}
		if tk.State == task.StateDropped {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("drop policy dropped nothing")
	}
}

// TestScenarioInitialDownJoinsLater: a machine absent at tick 0 receives
// no work until its join event.
func TestScenarioInitialDownJoinsLater(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	cfg.Scenario = scenario.New("elastic").StartDown(1).RecoverAt(50, 1)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	cfg2 := cfg
	cfg2.Trace = rec
	sim, err = New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// Type 1 tasks prefer machine 1 — but it is absent until tick 50.
	var tasks []*task.Task
	for i := 0; i < 4; i++ {
		tk := task.New(i, 1, int64(i), 10_000)
		tk.TrueExec = []int64{40, 10}
		tasks = append(tasks, tk)
	}
	if _, err := sim.Run(tasks); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tasks {
		if tk.State != task.StateCompleted {
			t.Fatalf("task %d finished %v, want completed", tk.ID, tk.State)
		}
	}
	for _, e := range rec.Events() {
		if e.Kind == trace.TaskStarted && e.Machine == 1 && e.Tick < 50 {
			t.Fatalf("machine 1 started task %d at tick %d while absent", e.TaskID, e.Tick)
		}
	}
}

// TestScenarioDegradeStretchesExecution: a task started on a ×2-degraded
// machine takes twice its true execution time, and restoring the factor
// returns new runs to nominal.
func TestScenarioDegradeStretchesExecution(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	cfg.Scenario = scenario.New("slow").DegradeAt(0, 0, 2).DegradeAt(100, 0, 1)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both tasks are type 0 (machine 0 affinity). The first runs degraded
	// (20 wall ticks for 10 of work), the second starts after the restore.
	a := fixedTask(0, 0, 1, 10_000, 10)
	b := fixedTask(1, 0, 150, 10_000, 10)
	if _, err := sim.Run([]*task.Task{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.Machine != 0 || b.Machine != 0 {
		t.Skipf("tasks mapped to %d/%d, not machine 0; PET draw changed affinity", a.Machine, b.Machine)
	}
	if got := a.Finish - a.Start; got != 20 {
		t.Errorf("degraded run took %d ticks, want 20", got)
	}
	if got := b.Finish - b.Start; got != 10 {
		t.Errorf("restored run took %d ticks, want 10", got)
	}
}

// TestScenarioDeterminism: a mid-trial failure + recovery (plus degradation
// and a burst) must replay byte-identically under every robustness-based
// heuristic — the acceptance bar for the scenario engine.
func TestScenarioDeterminism(t *testing.T) {
	matrix := simPET(t)
	for _, name := range []string{"PAM", "PAMF", "MOC", "MM"} {
		t.Run(name, func(t *testing.T) {
			cfg := baseConfig(t, name, matrix)
			cfg.Scenario = churnScenario().BurstWindow(100, 400, 2)
			run := func() ([]trace.Event, interface{}) {
				ev, st := runTraced(t, cfg, matrix, 21)
				return ev, st
			}
			ev1, st1 := run()
			ev2, st2 := run()
			if !reflect.DeepEqual(ev1, ev2) {
				t.Fatal("scenario trace not deterministic across runs")
			}
			if !reflect.DeepEqual(st1, st2) {
				t.Fatal("scenario stats not deterministic across runs")
			}
			sawFail, sawRecover := false, false
			for _, e := range ev1 {
				switch e.Kind {
				case trace.MachineFailed:
					sawFail = true
				case trace.MachineRecovered:
					sawRecover = true
				}
			}
			if !sawFail || !sawRecover {
				t.Error("trace is missing the fleet events")
			}
		})
	}
}

// TestScenarioAllTasksAccounted: under heavy churn every task still exits
// in exactly one terminal state, for every heuristic.
func TestScenarioAllTasksAccounted(t *testing.T) {
	matrix := simPET(t)
	rng := stats.NewRNG(55)
	wcfg := workload.Config{NumTasks: 200, Rate: 0.2, VarFrac: 0.1, Beta: 2}
	tasks, err := workload.Generate(wcfg, matrix, rng)
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario.New("heavy-churn").
		FailAt(150, 0, scenario.Drop).
		RecoverAt(320, 0).
		FailAt(400, 1, scenario.Requeue).
		RecoverAt(550, 1).
		DegradeAt(100, 1, 3).
		DegradeAt(700, 1, 1)
	for _, name := range []string{"PAM", "PAMF", "MOC", "MM", "MSD", "MMU"} {
		fresh := make([]*task.Task, len(tasks))
		for i, tk := range tasks {
			c := task.New(tk.ID, tk.Type, tk.Arrival, tk.Deadline)
			c.TrueExec = tk.TrueExec
			fresh[i] = c
		}
		cfg := baseConfig(t, name, matrix)
		cfg.Scenario = sc
		sim, err := New(cfg)
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
		}
	}
}
