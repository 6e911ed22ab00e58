package simulator

import (
	"reflect"
	"testing"

	"taskprune/internal/pmf"
	"taskprune/internal/scenario"
	"taskprune/internal/task"
	"taskprune/internal/trace"
)

// periodic builds a periodic checkpoint policy for tests.
func periodic(interval, overhead int64) *scenario.CheckpointPolicy {
	return &scenario.CheckpointPolicy{Kind: scenario.CheckpointPeriodic, Interval: interval, Overhead: overhead}
}

// TestCheckpointDisabledEquivalence: with checkpointing off — no policy at
// all, an explicit none-kind policy, or the zero value — the engine must be
// byte-identical to the pre-checkpoint engine for every heuristic class,
// static and churning alike. The committed golden traces pin the nil case
// against history; this pins the three disabled spellings against each
// other, so the checkpoint gates can never leak into a disabled run. Runs
// under -race in CI (make race-stream).
func TestCheckpointDisabledEquivalence(t *testing.T) {
	matrix := simPET(t)
	churn := scenario.New("churn").
		DegradeAt(200, 0, 2).
		FailAt(300, 1, scenario.Requeue).
		RecoverAt(600, 1).
		DegradeAt(700, 0, 1)
	for _, name := range []string{"PAM", "PAMF", "MOC", "MM"} {
		for scName, sc := range map[string]*scenario.Scenario{"static": nil, "churn": churn} {
			t.Run(name+"/"+scName, func(t *testing.T) {
				base := MustConfigFor(name, matrix)
				base.Scenario = sc
				evWant, stWant := runTraced(t, base, matrix, 11)

				noneKind := base
				noneKind.Checkpoint = &scenario.CheckpointPolicy{Kind: scenario.CheckpointNone}
				zero := base
				zero.Checkpoint = &scenario.CheckpointPolicy{}
				for variant, cfg := range map[string]Config{"none-kind": noneKind, "zero-value": zero} {
					ev, st := runTraced(t, cfg, matrix, 11)
					if !reflect.DeepEqual(ev, evWant) {
						for i := range evWant {
							if i >= len(ev) || ev[i] != evWant[i] {
								t.Fatalf("%s: traces diverge at event %d: nil-policy %v, %s %v",
									variant, i, evWant[i], variant, ev[i])
							}
						}
						t.Fatalf("%s: trace length %d, want %d", variant, len(ev), len(evWant))
					}
					if !reflect.DeepEqual(st, stWant) {
						t.Fatalf("%s: stats diverge:\nnil-policy: %+v\n%s: %+v", variant, stWant, variant, st)
					}
				}
			})
		}
	}
}

// TestCheckpointOverheadDelaysCompletion: a 30-tick task under interval 10
// / overhead 3 writes checkpoints at progress 10 and 20 (never at
// completion), so it finishes at 30 + 2×3 = 36 — and the scheduled
// completion event, the staleness guard, and the counters must all agree
// on that arithmetic.
func TestCheckpointOverheadDelaysCompletion(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	cfg.Checkpoint = periodic(10, 3)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk := fixedTask(0, 0, 0, 10_000, 30)
	if _, err := sim.Run([]*task.Task{tk}); err != nil {
		t.Fatal(err)
	}
	if tk.State != task.StateCompleted || tk.Finish != 36 {
		t.Fatalf("state %v finish %d, want completed at 36 (30 exec + 2 checkpoints × 3)", tk.State, tk.Finish)
	}
	if sim.Checkpoints() != 2 {
		t.Fatalf("checkpoints = %d, want 2", sim.Checkpoints())
	}
}

// TestCheckpointRestoreOnFailure: interval 5 / no overhead, failure at
// wall 12 of a 30-tick run — checkpoints at 5 and 10 completed, 15 was
// never reached, so the task restores with 10 ticks banked and finishes on
// the surviving machine owing only the remaining 20.
func TestCheckpointRestoreOnFailure(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	cfg.Scenario = scenario.New("fail").FailAt(12, 0, scenario.Requeue)
	cfg.Checkpoint = periodic(5, 0)
	rec := trace.NewRecorder()
	cfg.Trace = rec
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk := fixedTask(0, 0, 0, 10_000, 30) // type 0 prefers machine 0
	if _, err := sim.Run([]*task.Task{tk}); err != nil {
		t.Fatal(err)
	}
	if tk.Machine != 1 || tk.State != task.StateCompleted {
		t.Fatalf("task on m%d in state %v, want completed on survivor m1", tk.Machine, tk.State)
	}
	if tk.Consumed != 10 {
		t.Fatalf("consumed %d, want 10 banked at failure", tk.Consumed)
	}
	if tk.Finish != 12+20 {
		t.Fatalf("finish %d, want 32 (restored at 10 of 30 when the failure hit at 12)", tk.Finish)
	}
	if sim.Restored() != 1 || sim.Requeued() != 1 {
		t.Fatalf("restored %d / requeued %d, want 1 / 1", sim.Restored(), sim.Requeued())
	}
	sawRestore := false
	for _, e := range rec.Events() {
		if e.Kind == trace.TaskRestored {
			sawRestore = true
			if e.Value != 10 {
				t.Fatalf("restore trace carries credit %g, want 10", e.Value)
			}
		}
		if e.Kind == trace.TaskRequeued {
			t.Fatal("restored task traced as a plain requeue")
		}
	}
	if !sawRestore {
		t.Fatal("no restore event in the trace")
	}
}

// TestRestoredTaskOnDegradedMachine: PAM prices a checkpoint-restored task
// on a degraded machine from the machine's scaled entry conditioned on the
// scaled credit. A type-0 task (mean 10 on m0, 40 on m1) runs on m0 with a
// checkpoint every 4 ticks; m1 slows to half speed at tick 1, and m0 fails
// at 18, so the task is restored with 16 ticks banked while m1 is the only
// machine up. Its remaining work there is a half-speed run with 32 wall
// ticks done, success about 0.42 by its deadline, and PAM defers it; the
// nominal entry conditioned on 32 ticks (what a lookup that skips the
// scaling would price) clears the 0.9 threshold and would map it onto m1.
// When m0 recovers at 25 the task maps there and completes.
func TestRestoredTaskOnDegradedMachine(t *testing.T) {
	matrix := simPET(t)
	const deadline = 63
	cfg := baseConfig(t, "PAM", matrix)
	cfg.Scenario = scenario.New("restore-on-degraded").
		DegradeAt(1, 1, 2).
		FailAt(18, 0, scenario.Requeue).
		RecoverAt(25, 0)
	cfg.Checkpoint = periodic(4, 0)
	rec := trace.NewRecorder()
	cfg.Trace = rec
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	threshold := cfg.Pruner.DeferThreshold
	credit := pmf.ScaleDur(16, 2)
	scaled := pmf.NewProfile(pmf.ScaleTicks(matrix.PMF(0, 1), 2).RemainingAfter(credit))
	nominal := pmf.NewProfile(matrix.PMF(0, 1).RemainingAfter(credit))
	if s := scaled.CDF(deadline - 18); s >= threshold {
		t.Fatalf("premise: the restored task's success on the degraded m1 is %v, want below %v", s, threshold)
	}
	if s := nominal.CDF(deadline - 18); s < threshold {
		t.Fatalf("premise: the unscaled conditioned entry gives %v, want at least %v", s, threshold)
	}

	tk := fixedTask(0, 0, 0, deadline, 20)
	if _, err := sim.Run([]*task.Task{tk}); err != nil {
		t.Fatal(err)
	}
	var restored, deferred bool
	for _, e := range rec.Events() {
		switch {
		case e.Kind == trace.TaskRestored && e.Tick == 18:
			restored = e.Value == 16
		case e.Kind == trace.TaskDeferred && e.Tick == 18:
			deferred = true
		case e.Kind == trace.TaskMapped && e.Machine == 1:
			t.Errorf("t=%d: the restored task was mapped onto the degraded m1", e.Tick)
		}
	}
	if !restored || !deferred {
		t.Errorf("at t=18: restored with 16 banked %v, deferred %v; want both", restored, deferred)
	}
	if tk.State != task.StateCompleted || tk.Machine != 0 || tk.Finish != 29 {
		t.Errorf("task %v on m%d finishing at %d, want completed on m0 at 29 (mapped at 25, 4 ticks left)", tk.State, tk.Machine, tk.Finish)
	}
}

// TestCheckpointMidWriteLost: a checkpoint still being written when the
// machine dies does not count. Interval 5 / overhead 4: checkpoint 1
// (progress 5) completes at wall 9, checkpoint 2 (progress 10) would
// complete at wall 18 — a failure at wall 12 catches it mid-write, so only
// 5 ticks are banked.
func TestCheckpointMidWriteLost(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	cfg.Scenario = scenario.New("fail").FailAt(12, 0, scenario.Requeue)
	cfg.Checkpoint = periodic(5, 4)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk := fixedTask(0, 0, 0, 10_000, 30)
	if _, err := sim.Run([]*task.Task{tk}); err != nil {
		t.Fatal(err)
	}
	if tk.Consumed < 5 {
		t.Fatalf("consumed %d: the completed first checkpoint was lost", tk.Consumed)
	}
	if sim.Restored() != 1 {
		t.Fatalf("restored %d, want 1", sim.Restored())
	}
	if got := tk.Consumed; got != 5 {
		t.Fatalf("consumed %d, want 5 (checkpoint 2 was mid-write at the failure)", got)
	}
}

// TestCheckpointUnreachedIntervalKeepsRunStartCredit: a run that writes no
// checkpoint before its machine fails — interval 100 against the 23 ticks
// the run owes — loses the progress it made since it started, but the
// credit it started with survives the failure.
func TestCheckpointUnreachedIntervalKeepsRunStartCredit(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	cfg.Scenario = scenario.New("fail").FailAt(12, 0, scenario.Requeue)
	cfg.Checkpoint = periodic(100, 0)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk := fixedTask(0, 0, 0, 10_000, 30)
	tk.Consumed = 7 // restored from an earlier checkpoint elsewhere
	if _, err := sim.Run([]*task.Task{tk}); err != nil {
		t.Fatal(err)
	}
	if tk.State != task.StateCompleted || tk.Machine != 1 {
		t.Fatalf("task on m%d in state %v, want completed on survivor m1", tk.Machine, tk.State)
	}
	if tk.Consumed != 7 {
		t.Fatalf("consumed %d after failure, want the run-start 7 (progress since run start lost, credit kept)", tk.Consumed)
	}
	if tk.Finish != 12+23 {
		t.Fatalf("finish %d, want 35 (remaining 23 on the survivor from tick 12)", tk.Finish)
	}
	if sim.Checkpoints() != 0 {
		t.Fatalf("checkpoints = %d, want none (no interval point reached)", sim.Checkpoints())
	}
	if sim.Restored() != 1 {
		t.Fatalf("restored %d, want 1", sim.Restored())
	}
}

// TestCheckpointNoneLosesProgress pins the historical contrast: the same
// failure without checkpointing restarts the task from zero, finishing a
// full 10 ticks later than the periodic-checkpoint run above.
func TestCheckpointNoneLosesProgress(t *testing.T) {
	matrix := simPET(t)
	cfg := baseConfig(t, "MM", matrix)
	cfg.Scenario = scenario.New("fail").FailAt(12, 0, scenario.Requeue)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk := fixedTask(0, 0, 0, 10_000, 30)
	if _, err := sim.Run([]*task.Task{tk}); err != nil {
		t.Fatal(err)
	}
	if tk.Consumed != 0 {
		t.Fatalf("consumed %d without checkpointing, want 0", tk.Consumed)
	}
	if tk.Finish != 12+30 {
		t.Fatalf("finish %d, want 42 (full restart on the survivor)", tk.Finish)
	}
	if sim.Restored() != 0 {
		t.Fatalf("restored %d without checkpointing, want 0", sim.Restored())
	}
}

// TestCheckpointFailoverCredit drives the FailDC primitive directly: local
// survival forfeits the banked credit at a whole-DC outage, replicated
// survival keeps it minus the lag window rounded down to a checkpoint
// boundary.
func TestCheckpointFailoverCredit(t *testing.T) {
	matrix := simPET(t)
	for _, tc := range []struct {
		name   string
		policy *scenario.CheckpointPolicy
		want   int64
	}{
		{"local", periodic(5, 0), 0},
		{"replicated", &scenario.CheckpointPolicy{
			Kind: scenario.CheckpointPeriodic, Interval: 5,
			Survival: scenario.SurviveReplicated, ReplicationLag: 3,
		}, 7}, // banked 10, minus the 3-tick lag window still in flight
		{"replicated-no-lag", &scenario.CheckpointPolicy{
			Kind: scenario.CheckpointPeriodic, Interval: 5,
			Survival: scenario.SurviveReplicated,
		}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(t, "MM", matrix)
			cfg.Checkpoint = tc.policy
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim.Begin(nil)
			tk := fixedTask(0, 0, 0, 10_000, 30)
			if err := sim.Admit(tk); err != nil {
				t.Fatal(err)
			}
			if tk.State != task.StateRunning {
				t.Fatalf("task not running after admission: %v", tk.State)
			}
			out := sim.FailDC(12, false, nil)
			if len(out) != 1 {
				t.Fatalf("FailDC drained %d tasks, want 1", len(out))
			}
			if out[0].Consumed != tc.want {
				t.Fatalf("failover credit %d, want %d", out[0].Consumed, tc.want)
			}
		})
	}
}

// TestGoldenTraceCheckpointChurnPAM pins the checkpointed-churn decision
// stream — restore arithmetic, overhead-shifted completions, restored-task
// re-mapping — byte for byte, alongside the other golden traces.
func TestGoldenTraceCheckpointChurnPAM(t *testing.T) {
	sc := goldenChurn().WithCheckpoint(scenario.CheckpointPolicy{
		Kind: scenario.CheckpointPeriodic, Interval: 4, Overhead: 1,
	})
	checkGolden(t, "golden_ckpt_churn_PAM.csv", goldenTrace(t, "PAM", sc))
}

// TestGoldenTraceCheckpointChurnMM is the baseline-heuristic counterpart
// (no pruner in the loop, so restores re-map through the scalar path).
func TestGoldenTraceCheckpointChurnMM(t *testing.T) {
	sc := goldenChurn().WithCheckpoint(scenario.CheckpointPolicy{
		Kind: scenario.CheckpointPeriodic, Interval: 4, Overhead: 1,
	})
	checkGolden(t, "golden_ckpt_churn_MM.csv", goldenTrace(t, "MM", sc))
}
