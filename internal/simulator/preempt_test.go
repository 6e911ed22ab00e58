package simulator

import (
	"testing"

	"taskprune/internal/pruner"
	"taskprune/internal/stats"
	"taskprune/internal/task"
	"taskprune/internal/workload"
)

// Preempted returns how many times the pruner paused an executing task
// instead of dropping it (preemption extension).
func (s *Simulator) Preempted() int { return s.preempted }

// preemptConfig builds a PAM config with preemption on and a hair-trigger
// pruner so the preemption path actually exercises.
func preemptConfig(t *testing.T, gray float64) Config {
	matrix := simPET(t)
	cfg := baseConfig(t, "PAM", matrix)
	pc := *cfg.Pruner
	pc.ToggleOn = 0.0001 // engage dropping almost immediately
	cfg.Pruner = &pc
	cfg.Preempt = true
	cfg.PreemptGrayFraction = gray
	return cfg
}

// TestPreemptionBanksProgress: a preempted task that later resumes owes
// only its remaining execution time.
func TestPreemptionBanksProgress(t *testing.T) {
	tk := task.New(0, 0, 0, 100)
	tk.TrueExec = []int64{40, 40}
	tk.Consumed = 25
	if got := tk.Remaining(0); got != 15 {
		t.Errorf("Remaining = %d, want 15", got)
	}
	tk.Consumed = 45 // outran its sampled time (can happen after conditioning)
	if got := tk.Remaining(0); got != 1 {
		t.Errorf("over-consumed Remaining = %d, want 1 (floor)", got)
	}
}

// TestPreemptionOccursUnderLoad: at a crushing load with a hair-trigger
// pruner and a wide gray zone, some executing tasks must be preempted
// rather than dropped, and the trial still accounts for every task.
func TestPreemptionOccursUnderLoad(t *testing.T) {
	cfg := preemptConfig(t, 0.01) // gray zone ≈ everything below threshold
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	matrix := cfg.PET
	tasks, err := workload.Generate(workload.Config{NumTasks: 300, Rate: 0.35, VarFrac: 0.1, Beta: 2}, matrix, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 300 {
		t.Errorf("accounted %d, want 300", st.Total)
	}
	if sim.Preempted() == 0 {
		t.Error("no preemptions at 10x capacity with a hair-trigger pruner")
	}
	for _, tk := range tasks {
		if !tk.Done() {
			t.Errorf("task %d not terminal: %v", tk.ID, tk.State)
		}
		if tk.State == task.StateCompleted && tk.Finish > tk.Deadline {
			t.Errorf("task %d completed late", tk.ID)
		}
	}
}

// TestPreemptDisabledNeverPreempts: the counter stays zero without the
// extension enabled.
func TestPreemptDisabledNeverPreempts(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "PAM", matrix)
	sim, _ := New(cfg)
	tasks, err := workload.Generate(workload.Config{NumTasks: 300, Rate: 0.35, VarFrac: 0.1, Beta: 2}, matrix, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(tasks); err != nil {
		t.Fatal(err)
	}
	if sim.Preempted() != 0 {
		t.Errorf("preempted %d times with extension disabled", sim.Preempted())
	}
}

// TestPreemptGrayFractionValidation: out-of-range fractions rejected.
func TestPreemptGrayFractionValidation(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "PAM", matrix)
	cfg.Preempt = true
	cfg.PreemptGrayFraction = 1.5
	if _, err := New(cfg); err == nil {
		t.Error("gray fraction 1.5 accepted")
	}
	cfg.PreemptGrayFraction = -0.2
	if _, err := New(cfg); err == nil {
		t.Error("negative gray fraction accepted")
	}
}

// TestPreemptedTaskCanStillComplete: a task paused once can still finish on
// time when the system drains.
func TestPreemptedTaskCanStillComplete(t *testing.T) {
	// Construct the scenario by hand: run a trial and look for at least one
	// task that was preempted and later completed. With a generous deadline
	// slack this is overwhelmingly likely across seeds; assert over several.
	for seed := int64(1); seed <= 5; seed++ {
		cfg := preemptConfig(t, 0.01)
		sim, _ := New(cfg)
		tasks, err := workload.Generate(workload.Config{NumTasks: 300, Rate: 0.3, VarFrac: 0.1, Beta: 3}, cfg.PET, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(tasks); err != nil {
			t.Fatal(err)
		}
		for _, tk := range tasks {
			if tk.Preemptions > 0 && tk.State == task.StateCompleted {
				if tk.Finish > tk.Deadline {
					t.Fatalf("preempted task %d 'completed' late", tk.ID)
				}
				return // found the witness
			}
		}
	}
	t.Skip("no preempted-then-completed task across seeds; scenario too harsh")
}

// TestPreemptionBeatsDroppingInGrayZone: the extension should not hurt —
// across a few trials at heavy load, PAM+preempt robustness is at least
// (PAM robustness − noise).
func TestPreemptionBeatsDroppingInGrayZone(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison is slow")
	}
	matrix := simPET(t)
	run := func(preempt bool) float64 {
		var sum float64
		const trials = 4
		for trial := int64(0); trial < trials; trial++ {
			cfg := baseConfig(t, "PAM", matrix)
			cfg.Preempt = preempt
			sim, _ := New(cfg)
			tasks, err := workload.Generate(workload.Config{NumTasks: 400, Rate: 0.25, VarFrac: 0.1, Beta: 2}, matrix, stats.NewRNG(40+trial))
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run(tasks)
			if err != nil {
				t.Fatal(err)
			}
			sum += st.RobustnessPct
		}
		return sum / trials
	}
	plain, withPre := run(false), run(true)
	t.Logf("PAM %.1f%% vs PAM+preempt %.1f%%", plain, withPre)
	if withPre < plain-8 {
		t.Errorf("preemption hurt robustness badly: %.1f vs %.1f", withPre, plain)
	}
}

// TestStaleEventAfterPreemptRestart: a task preempted and immediately
// restarted must not be completed early by the stale event of its first
// run.
func TestStaleEventAfterPreemptRestart(t *testing.T) {
	cfg := preemptConfig(t, 0.01)
	sim, _ := New(cfg)
	tasks, err := workload.Generate(workload.Config{NumTasks: 200, Rate: 0.4, VarFrac: 0.1, Beta: 2}, cfg.PET, stats.NewRNG(23))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(tasks); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tasks {
		if tk.State != task.StateCompleted {
			continue
		}
		// A completed task must have received its full execution time:
		// finish - last start == remaining at last start, i.e. total
		// consumed + final run == TrueExec (within the eviction clamp,
		// which never applies to on-time completions).
		ran := tk.Finish - tk.Start
		if ran+tk.Consumed != tk.TrueExec[tk.Machine] && ran != 1 {
			t.Fatalf("task %d completed after %d+%d ticks, TrueExec %d",
				tk.ID, tk.Consumed, ran, tk.TrueExec[tk.Machine])
		}
	}
}

// TestPrunerConfigInteraction: with pruning disabled entirely (nil config),
// preemption can never trigger even when enabled.
func TestPrunerConfigInteraction(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "PAM", matrix)
	cfg.Pruner = nil // pruning off
	cfg.Preempt = true
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
	if sim.Preempted() != 0 {
		t.Error("preempted without a pruner")
	}
	_ = pruner.DefaultConfig() // keep import for clarity of intent
}
