// Package analysis post-processes simulation traces and outcomes into the
// operational views a practitioner needs when studying a pruning policy:
// machine utilization, queue-length dynamics, drop breakdowns, deferral
// distributions, and latency percentiles. The experiment harness reports
// figure-level aggregates; this package answers "what actually happened
// inside a trial".
package analysis

import (
	"fmt"
	"io"
	"sort"

	"taskprune/internal/machine"
	"taskprune/internal/report"
	"taskprune/internal/task"
	"taskprune/internal/trace"
)

// DropReason classifies why a task failed.
type DropReason int

const (
	// ReasonExpiredUnmapped: deadline passed while in the batch queue.
	ReasonExpiredUnmapped DropReason = iota
	// ReasonExpiredQueued: deadline passed while pending on a machine.
	ReasonExpiredQueued
	// ReasonEvicted: killed at the deadline while executing.
	ReasonEvicted
	// ReasonPruned: removed by the probabilistic dropper before its
	// deadline passed.
	ReasonPruned
	// ReasonMissedLate: ran to completion after the deadline (baselines).
	ReasonMissedLate
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case ReasonExpiredUnmapped:
		return "expired-unmapped"
	case ReasonExpiredQueued:
		return "expired-queued"
	case ReasonEvicted:
		return "evicted"
	case ReasonPruned:
		return "pruned"
	case ReasonMissedLate:
		return "missed-late"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// TrialAnalysis aggregates one finished trial.
type TrialAnalysis struct {
	Tasks int

	// Outcomes.
	Completed int
	Approx    int // approximate completions (extension)
	Failed    int
	Breakdown map[DropReason]int

	// Timing (completed tasks only).
	ResponseP50  int64 // arrival -> finish
	ResponseP95  int64
	QueueWaitP50 int64 // arrival -> first start
	QueueWaitP95 int64

	// Pruning behaviour.
	DeferredTasks int // tasks deferred at least once
	TotalDefers   int
	MaxDefers     int

	// Per-machine utilization: busy ticks / trial span.
	Utilization []float64
	SpanTicks   int64
}

// AnalyzeTrial computes a TrialAnalysis from finished tasks and the machine
// fleet at the end of a trial. endTick is the simulator's final clock.
func AnalyzeTrial(tasks []*task.Task, machines []*machine.Machine, endTick int64) TrialAnalysis {
	a := TrialAnalysis{
		Tasks:     len(tasks),
		Breakdown: make(map[DropReason]int),
		SpanTicks: endTick,
	}
	var responses, waits []int64
	for _, t := range tasks {
		if t.Defers > 0 {
			a.DeferredTasks++
			a.TotalDefers += t.Defers
			if t.Defers > a.MaxDefers {
				a.MaxDefers = t.Defers
			}
		}
		switch t.State {
		case task.StateCompleted:
			a.Completed++
			responses = append(responses, t.Finish-t.Arrival)
			waits = append(waits, t.Start-t.Arrival)
		case task.StateApprox:
			a.Approx++
		case task.StateMissed:
			a.Failed++
			a.Breakdown[ReasonMissedLate]++
		case task.StateDropped:
			a.Failed++
			a.Breakdown[classifyDrop(t)]++
		}
	}
	a.ResponseP50, a.ResponseP95 = percentiles(responses)
	a.QueueWaitP50, a.QueueWaitP95 = percentiles(waits)
	if endTick > 0 {
		for _, m := range machines {
			a.Utilization = append(a.Utilization, float64(m.BusyTicks(endTick))/float64(endTick))
		}
	}
	return a
}

// classifyDrop infers why a dropped task failed from its final state.
func classifyDrop(t *task.Task) DropReason {
	switch {
	case t.Machine < 0:
		return ReasonExpiredUnmapped
	case t.State == task.StateDropped && t.Start > 0 && t.Finish == t.Deadline:
		return ReasonEvicted
	case t.Finish > t.Deadline:
		return ReasonExpiredQueued
	default:
		return ReasonPruned
	}
}

// percentiles returns the 50th and 95th percentile of xs (0, 0 if empty).
func percentiles(xs []int64) (p50, p95 int64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := func(q float64) int64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return idx(0.50), idx(0.95)
}

// Table renders the analysis as a report table.
func (a TrialAnalysis) Table() *report.Table {
	t := report.NewTable("trial analysis", "metric", "value")
	t.AddRow("tasks", a.Tasks)
	t.AddRow("completed on time", a.Completed)
	if a.Approx > 0 {
		t.AddRow("approximate completions", a.Approx)
	}
	t.AddRow("failed", a.Failed)
	for _, reason := range []DropReason{ReasonExpiredUnmapped, ReasonExpiredQueued, ReasonEvicted, ReasonPruned, ReasonMissedLate} {
		if n := a.Breakdown[reason]; n > 0 {
			t.AddRow("  "+reason.String(), n)
		}
	}
	t.AddRow("response p50 (ticks)", a.ResponseP50)
	t.AddRow("response p95 (ticks)", a.ResponseP95)
	t.AddRow("queue wait p50 (ticks)", a.QueueWaitP50)
	t.AddRow("queue wait p95 (ticks)", a.QueueWaitP95)
	t.AddRow("tasks deferred >= once", a.DeferredTasks)
	t.AddRow("total deferrals", a.TotalDefers)
	t.AddRow("max deferrals of one task", a.MaxDefers)
	for i, u := range a.Utilization {
		t.AddRow(fmt.Sprintf("machine %d utilization", i), fmt.Sprintf("%.1f%%", u*100))
	}
	return t
}

// QueueSample is one point of a queue-length time series.
type QueueSample struct {
	Tick  int64
	Batch int // tasks waiting unmapped
	InSys int // tasks mapped or executing
}

// QueueTimeline reconstructs batch-queue and in-system occupancy over time
// from a trace. It requires an unbounded recorder that observed the whole
// trial.
func QueueTimeline(rec *trace.Recorder) []QueueSample {
	var out []QueueSample
	batch, inSys := 0, 0
	var lastTick int64 = -1
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.TaskArrived:
			batch++
		case trace.TaskMapped:
			batch--
			inSys++
		case trace.TaskCompleted, trace.TaskMissed:
			inSys--
		case trace.TaskDropped:
			// A drop can hit either side; infer from machine field.
			if e.Machine >= 0 {
				inSys--
			} else {
				batch--
			}
		default:
			continue
		}
		if e.Tick != lastTick {
			out = append(out, QueueSample{Tick: e.Tick, Batch: batch, InSys: inSys})
			lastTick = e.Tick
		} else if len(out) > 0 {
			out[len(out)-1].Batch = batch
			out[len(out)-1].InSys = inSys
		}
	}
	return out
}

// PeakBatch returns the maximum batch-queue occupancy in a timeline.
func PeakBatch(samples []QueueSample) int {
	peak := 0
	for _, s := range samples {
		if s.Batch > peak {
			peak = s.Batch
		}
	}
	return peak
}

// WriteTimelineCSV dumps a queue timeline as CSV.
func WriteTimelineCSV(w io.Writer, samples []QueueSample) error {
	if _, err := fmt.Fprintln(w, "tick,batch,in_system"); err != nil {
		return err
	}
	for _, s := range samples {
		if _, err := fmt.Fprintf(w, "%d,%d,%d\n", s.Tick, s.Batch, s.InSys); err != nil {
			return err
		}
	}
	return nil
}
