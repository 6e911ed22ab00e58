package cluster

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"taskprune/internal/scenario"
	"taskprune/internal/task"
	"taskprune/internal/workload"
)

// liveSubmitAll drives an engine through the live API with the given
// workload: tasks go in arrival order (FromTasks's sort), one SubmitLive
// per task, then FinishLive.
func liveSubmitAll(t *testing.T, eng *Engine, tasks []*task.Task) (st, perDC any) {
	t.Helper()
	ordered := append([]*task.Task(nil), tasks...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })
	if err := eng.StartLive(nil); err != nil {
		t.Fatal(err)
	}
	for _, tk := range ordered {
		if err := eng.SubmitLive(tk); err != nil {
			t.Fatal(err)
		}
	}
	agg, dc, err := eng.FinishLive()
	if err != nil {
		t.Fatal(err)
	}
	return agg, dc
}

// TestLiveEquivalentToRunSource pins the tentpole contract: driving the
// engine one SubmitLive at a time produces byte-identical statistics,
// dispatch log, and gate counters to RunSource over the same workload —
// including under a heartbeat-detection outage that exercises the gate
// buffer, bounce/retry, and cluster truth events.
func TestLiveEquivalentToRunSource(t *testing.T) {
	detect := scenario.New("live-detect").
		DCFailAt(100, 0, scenario.Requeue).
		DCRecoverAt(250, 0).
		WithFailover(scenario.FailoverPolicy{
			Kind: scenario.FailoverHeartbeat, HeartbeatEvery: 20, SuspectAfter: 2,
			Probation: 20, BounceAfter: 10, RetryBase: 5, RetryCap: 40,
		})
	for _, tc := range []struct {
		name      string
		heuristic string
		dcs       int
		sc        *scenario.Scenario
	}{
		{"static-3dc-pam", "PAM", 3, nil},
		{"static-1dc-mm", "MM", 1, nil},
		{"detection-outage", "PAM", 3, detect},
	} {
		t.Run(tc.name, func(t *testing.T) {
			matrix := clusterPET(t)

			cfgA := clusterConfig(t, tc.heuristic, matrix, tc.dcs, nil, tc.sc)
			cfgA.RecordDispatch = true
			ref, err := New(cfgA)
			if err != nil {
				t.Fatal(err)
			}
			refSt, refDC, err := ref.RunSource(workload.FromTasks(clusterWorkload(t, matrix, 300, 11)))
			if err != nil {
				t.Fatal(err)
			}

			cfgB := clusterConfig(t, tc.heuristic, matrix, tc.dcs, nil, tc.sc)
			cfgB.RecordDispatch = true
			live, err := New(cfgB)
			if err != nil {
				t.Fatal(err)
			}
			liveSt, liveDC := liveSubmitAll(t, live, clusterWorkload(t, matrix, 300, 11))

			if !reflect.DeepEqual(refSt, liveSt) {
				t.Errorf("aggregate stats diverge:\n RunSource %+v\n live      %+v", refSt, liveSt)
			}
			if !reflect.DeepEqual(refDC, liveDC) {
				t.Errorf("per-DC stats diverge:\n RunSource %+v\n live      %+v", refDC, liveDC)
			}
			if !reflect.DeepEqual(ref.Dispatches(), live.Dispatches()) {
				t.Errorf("dispatch logs diverge: RunSource %d entries, live %d", len(ref.Dispatches()), len(live.Dispatches()))
			}
			if ref.Gate() != live.Gate() {
				t.Errorf("gate counters diverge:\n RunSource %+v\n live      %+v", ref.Gate(), live.Gate())
			}
		})
	}
}

// TestQuiesceSettlesInFlight pins the status-endpoint contract: after a
// burst, Quiesce steps until the system is steady — every remaining
// in-flight task is one with no pending event to move it (a deferred task
// waiting on a future arrival or on its deadline passing) — and FinishLive
// then accounts for every submission.
func TestQuiesceSettlesInFlight(t *testing.T) {
	matrix := clusterPET(t)
	eng, err := New(clusterConfig(t, "PAM", matrix, 3, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StartLive(nil); err != nil {
		t.Fatal(err)
	}
	tasks := clusterWorkload(t, matrix, 50, 3)
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Arrival < tasks[j].Arrival })
	for _, tk := range tasks {
		if err := eng.SubmitLive(tk); err != nil {
			t.Fatal(err)
		}
	}
	if eng.InFlight() == 0 {
		t.Fatal("nothing in flight right after a 50-task burst (events should not fire until Quiesce)")
	}
	if err := eng.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if left := eng.InFlight(); left > 0 {
		// Steady state with stragglers is legal only when nothing is
		// pending: the stragglers are deferred tasks waiting on time that
		// only future submissions (or FinishLive's flush) can bring.
		if tick, dc, ok := eng.nextEvent(); ok {
			t.Fatalf("Quiesce returned with %d in flight and event (tick %d, dc %d) still pending", left, tick, dc)
		}
	}
	if got := eng.LiveCounts().Total + eng.InFlight(); got != 50 {
		t.Fatalf("exits %d + in-flight %d != 50 submitted", eng.LiveCounts().Total, eng.InFlight())
	}
	if eng.Submitted() != 50 {
		t.Fatalf("Submitted = %d, want 50", eng.Submitted())
	}
	st, _, err := eng.FinishLive()
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 50 {
		t.Fatalf("FinishLive accounted %d of 50 submissions", st.Total)
	}
}

// TestQuiesceIdleLeavesFutureEvents pins the boot behavior: with nothing
// in flight, Quiesce must not fast-forward the clock through far-future
// scenario events — a dc-fail scheduled at tick 10⁶ stays pending until
// real submissions pull time forward.
func TestQuiesceIdleLeavesFutureEvents(t *testing.T) {
	matrix := clusterPET(t)
	sc := scenario.New("far-future").DCFailAt(1_000_000, 0, scenario.Requeue)
	eng, err := New(clusterConfig(t, "PAM", matrix, 3, nil, sc))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StartLive(nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if !eng.DCList()[0].InService() {
		t.Fatal("idle Quiesce burned a dc-fail event a million ticks in the future")
	}
	if eng.Now() != 0 {
		t.Fatalf("idle Quiesce moved the clock to %d", eng.Now())
	}
}

// TestSubmitLiveChecksClock: once Quiesce has moved the clock past a
// task's stamp, SubmitLive rejects the task by name before routing counts
// it, on a single-DC engine and on a sharded one alike, and a task stamped
// at Now is accepted.
func TestSubmitLiveChecksClock(t *testing.T) {
	matrix := clusterPET(t)
	for _, dcs := range []int{1, 3} {
		eng, err := New(clusterConfig(t, "PAM", matrix, dcs, nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.StartLive(nil); err != nil {
			t.Fatal(err)
		}
		tasks := clusterWorkload(t, matrix, 2, 5)
		first, stale := tasks[0], tasks[1]
		first.Arrival = 1
		if err := eng.SubmitLive(first); err != nil {
			t.Fatal(err)
		}
		if err := eng.Quiesce(); err != nil {
			t.Fatal(err)
		}
		now := eng.Now()
		if now <= 1 {
			t.Fatalf("%d DCs: Quiesce left the clock at %d", dcs, now)
		}
		submitted, inFlight := eng.Submitted(), eng.InFlight()
		stale.ID, stale.Arrival = 42, 1
		if err := eng.SubmitLive(stale); err == nil || !strings.Contains(err.Error(), "task 42 ") {
			t.Errorf("%d DCs: task stamped 1 after the clock reached %d: err = %v", dcs, now, err)
		}
		if eng.Submitted() != submitted || eng.InFlight() != inFlight {
			t.Errorf("%d DCs: rejected task moved Submitted %d→%d, InFlight %d→%d",
				dcs, submitted, eng.Submitted(), inFlight, eng.InFlight())
		}
		stale.Arrival = now
		if err := eng.SubmitLive(stale); err != nil {
			t.Errorf("%d DCs: task stamped at Now (%d) rejected: %v", dcs, now, err)
		}
		if eng.Submitted() != submitted+1 {
			t.Errorf("%d DCs: Submitted = %d after an accepted task, want %d", dcs, eng.Submitted(), submitted+1)
		}
		if st, _, err := eng.FinishLive(); err != nil || st.Total != 2 {
			t.Errorf("%d DCs: FinishLive = %d exits, %v; want 2", dcs, st.Total, err)
		}
	}
}

// TestLiveGuards pins the misuse errors: double start, driving before
// start, out-of-order arrivals, parallel configs, and reusing a RunSource
// engine.
func TestLiveGuards(t *testing.T) {
	matrix := clusterPET(t)

	eng, err := New(clusterConfig(t, "PAM", matrix, 2, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SubmitLive(workload.NewPooledTask(matrix.NumMachines())); err == nil {
		t.Error("SubmitLive before StartLive accepted")
	}
	if err := eng.Quiesce(); err == nil {
		t.Error("Quiesce before StartLive accepted")
	}
	if _, _, err := eng.FinishLive(); err == nil {
		t.Error("FinishLive before StartLive accepted")
	}
	if err := eng.StartLive(nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.StartLive(nil); err == nil {
		t.Error("second StartLive accepted")
	}
	tasks := clusterWorkload(t, matrix, 10, 1)
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Arrival < tasks[j].Arrival })
	last := tasks[len(tasks)-1]
	if err := eng.SubmitLive(last); err != nil {
		t.Fatal(err)
	}
	early := tasks[0]
	if early.Arrival >= last.Arrival {
		t.Fatal("test workload has no arrival spread")
	}
	if err := eng.SubmitLive(early); err == nil {
		t.Error("out-of-order live arrival accepted")
	}

	par := clusterConfig(t, "PAM", matrix, 2, nil, nil)
	par.Parallel = true
	peng, err := New(par)
	if err != nil {
		t.Fatal(err)
	}
	if err := peng.StartLive(nil); err == nil {
		t.Error("StartLive on a parallel engine accepted")
	}

	used, err := New(clusterConfig(t, "PAM", matrix, 2, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := used.RunSource(workload.FromTasks(clusterWorkload(t, matrix, 20, 2))); err != nil {
		t.Fatal(err)
	}
	if err := used.StartLive(nil); err == nil {
		t.Error("StartLive on a spent RunSource engine accepted")
	}
}
