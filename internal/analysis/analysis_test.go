package analysis

import (
	"strings"
	"testing"

	"taskprune/internal/machine"
	"taskprune/internal/task"
	"taskprune/internal/trace"
)

func doneTask(id int, st task.State, arrival, start, finish, deadline int64) *task.Task {
	t := task.New(id, 0, arrival, deadline)
	t.TrueExec = []int64{finish - start}
	t.State = st
	t.Start = start
	t.Finish = finish
	if st != task.StatePending {
		t.Machine = 0
	}
	return t
}

func TestAnalyzeTrialOutcomes(t *testing.T) {
	ok := doneTask(0, task.StateCompleted, 0, 10, 30, 100)
	late := doneTask(1, task.StateMissed, 0, 10, 120, 100)
	evicted := doneTask(2, task.StateDropped, 0, 50, 100, 100)
	expiredUnmapped := doneTask(3, task.StateDropped, 0, 0, 150, 100)
	expiredUnmapped.Machine = -1
	tasks := []*task.Task{ok, late, evicted, expiredUnmapped}

	m := machine.New(0, "m0", 6, 0)
	a := AnalyzeTrial(tasks, []*machine.Machine{m}, 200)
	if a.Completed != 1 || a.Failed != 3 {
		t.Errorf("completed/failed = %d/%d", a.Completed, a.Failed)
	}
	if a.Breakdown[ReasonMissedLate] != 1 {
		t.Errorf("missed-late = %d", a.Breakdown[ReasonMissedLate])
	}
	if a.Breakdown[ReasonEvicted] != 1 {
		t.Errorf("evicted = %d (breakdown %v)", a.Breakdown[ReasonEvicted], a.Breakdown)
	}
	if a.Breakdown[ReasonExpiredUnmapped] != 1 {
		t.Errorf("expired-unmapped = %d", a.Breakdown[ReasonExpiredUnmapped])
	}
	if a.ResponseP50 != 30 {
		t.Errorf("response p50 = %d, want 30", a.ResponseP50)
	}
	if a.QueueWaitP50 != 10 {
		t.Errorf("wait p50 = %d, want 10", a.QueueWaitP50)
	}
}

func TestAnalyzeTrialDefers(t *testing.T) {
	a1 := doneTask(0, task.StateCompleted, 0, 1, 2, 10)
	a1.Defers = 3
	a2 := doneTask(1, task.StateCompleted, 0, 1, 2, 10)
	a := AnalyzeTrial([]*task.Task{a1, a2}, nil, 10)
	if a.DeferredTasks != 1 || a.TotalDefers != 3 || a.MaxDefers != 3 {
		t.Errorf("defer stats = %d/%d/%d", a.DeferredTasks, a.TotalDefers, a.MaxDefers)
	}
}

func TestAnalyzeTrialUtilization(t *testing.T) {
	m := machine.New(0, "m0", 6, 0)
	tk := doneTask(0, task.StateCompleted, 0, 0, 50, 100)
	if err := m.Enqueue(tk); err != nil {
		t.Fatal(err)
	}
	m.StartNext(0)
	m.FinishExecuting(50)
	a := AnalyzeTrial([]*task.Task{tk}, []*machine.Machine{m}, 100)
	if len(a.Utilization) != 1 {
		t.Fatalf("utilization entries = %d", len(a.Utilization))
	}
	if a.Utilization[0] != 0.5 {
		t.Errorf("utilization = %v, want 0.5", a.Utilization[0])
	}
}

func TestPercentilesEmpty(t *testing.T) {
	a := AnalyzeTrial(nil, nil, 100)
	if a.ResponseP50 != 0 || a.ResponseP95 != 0 {
		t.Error("empty percentiles should be zero")
	}
}

func TestDropReasonString(t *testing.T) {
	for reason, want := range map[DropReason]string{
		ReasonExpiredUnmapped: "expired-unmapped",
		ReasonExpiredQueued:   "expired-queued",
		ReasonEvicted:         "evicted",
		ReasonPruned:          "pruned",
		ReasonMissedLate:      "missed-late",
		DropReason(9):         "DropReason(9)",
	} {
		if got := reason.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestTableRendersBreakdown(t *testing.T) {
	ok := doneTask(0, task.StateCompleted, 0, 10, 30, 100)
	a := AnalyzeTrial([]*task.Task{ok}, nil, 100)
	out := a.Table().String()
	for _, frag := range []string{"tasks", "completed on time", "response p50"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table missing %q:\n%s", frag, out)
		}
	}
}

func TestQueueTimeline(t *testing.T) {
	rec := trace.NewRecorder()
	rec.Record(trace.Event{Tick: 1, Kind: trace.TaskArrived, TaskID: 0, Machine: -1})
	rec.Record(trace.Event{Tick: 1, Kind: trace.TaskArrived, TaskID: 1, Machine: -1})
	rec.Record(trace.Event{Tick: 2, Kind: trace.TaskMapped, TaskID: 0, Machine: 0})
	rec.Record(trace.Event{Tick: 5, Kind: trace.TaskCompleted, TaskID: 0, Machine: 0})
	rec.Record(trace.Event{Tick: 9, Kind: trace.TaskDropped, TaskID: 1, Machine: -1})

	tl := QueueTimeline(rec)
	if len(tl) != 4 { // ticks 1, 2, 5, 9
		t.Fatalf("timeline samples = %d, want 4: %+v", len(tl), tl)
	}
	if tl[0].Batch != 2 || tl[0].InSys != 0 {
		t.Errorf("tick1 = %+v, want batch=2", tl[0])
	}
	if tl[1].Batch != 1 || tl[1].InSys != 1 {
		t.Errorf("tick2 = %+v", tl[1])
	}
	if tl[2].InSys != 0 {
		t.Errorf("tick5 = %+v", tl[2])
	}
	if tl[3].Batch != 0 {
		t.Errorf("tick9 = %+v", tl[3])
	}
	if PeakBatch(tl) != 2 {
		t.Errorf("PeakBatch = %d, want 2", PeakBatch(tl))
	}
}

func TestWriteTimelineCSV(t *testing.T) {
	var sb strings.Builder
	err := WriteTimelineCSV(&sb, []QueueSample{{Tick: 3, Batch: 2, InSys: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "tick,batch,in_system\n3,2,1\n") {
		t.Errorf("CSV = %q", sb.String())
	}
}
