// Package trace records the simulator's decision stream — arrivals,
// mapping decisions, deferrals, drops, evictions, completions, pruner
// state flips — so that runs can be audited, visualized, or diffed. The
// recorder is allocation-light (a preallocated ring buffer) so tracing can
// stay on during benchmarks without distorting them.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Kind classifies a trace event.
type Kind int

const (
	// TaskArrived: a task entered the batch queue.
	TaskArrived Kind = iota
	// TaskMapped: the heuristic committed a task to a machine queue.
	TaskMapped
	// TaskDeferred: the pruner held a task back at a mapping event.
	TaskDeferred
	// TaskStarted: a machine began executing a task.
	TaskStarted
	// TaskCompleted: a task finished at or before its deadline.
	TaskCompleted
	// TaskMissed: a task finished after its deadline.
	TaskMissed
	// TaskDropped: a task was removed (expired, pruned, or evicted).
	TaskDropped
	// PrunerEngaged: the oversubscription detector switched dropping on.
	PrunerEngaged
	// PrunerDisengaged: the detector switched dropping off.
	PrunerDisengaged
	// MachineFailed: a scenario event took a machine out of the fleet.
	MachineFailed
	// MachineRecovered: a scenario event returned a machine to the fleet.
	MachineRecovered
	// MachineDegraded: a scenario event changed a machine's speed factor
	// (Value carries the new factor).
	MachineDegraded
	// TaskRequeued: a machine failure returned a queued or executing task
	// to the batch queue (its progress, if any, is lost).
	TaskRequeued
	// TaskRestored: a machine failure returned a task to the batch queue
	// with checkpointed progress surviving (Value carries the restored
	// Consumed credit in nominal ticks).
	TaskRestored
	// BeliefRefreshed: the online PET belief rebuilt one (type, machine)
	// cell's distribution from observed completions (Machine carries the
	// cell's machine, TaskID the task type, Value the learned mean).
	BeliefRefreshed
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case TaskArrived:
		return "arrived"
	case TaskMapped:
		return "mapped"
	case TaskDeferred:
		return "deferred"
	case TaskStarted:
		return "started"
	case TaskCompleted:
		return "completed"
	case TaskMissed:
		return "missed"
	case TaskDropped:
		return "dropped"
	case PrunerEngaged:
		return "pruner-on"
	case PrunerDisengaged:
		return "pruner-off"
	case MachineFailed:
		return "m-failed"
	case MachineRecovered:
		return "m-recovered"
	case MachineDegraded:
		return "m-degraded"
	case TaskRequeued:
		return "requeued"
	case TaskRestored:
		return "restored"
	case BeliefRefreshed:
		return "belief-refresh"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded occurrence. Fields not applicable to a Kind are
// zero.
type Event struct {
	Tick    int64
	Kind    Kind
	TaskID  int
	Machine int     // -1 when not machine-related
	Value   float64 // kind-specific: robustness at drop/defer, EWMA level at flips
}

// String renders one event compactly.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%-8d %-10s", e.Tick, e.Kind)
	if e.TaskID >= 0 {
		fmt.Fprintf(&b, " task=%d", e.TaskID)
	}
	if e.Machine >= 0 {
		fmt.Fprintf(&b, " machine=%d", e.Machine)
	}
	if e.Value != 0 {
		fmt.Fprintf(&b, " v=%.3f", e.Value)
	}
	return b.String()
}

// Recorder accumulates events. A nil *Recorder is valid and records
// nothing, so call sites never need nil checks beyond the method receiver.
type Recorder struct {
	events   []Event
	capacity int // 0 = unbounded
	dropped  int // events discarded once the ring wrapped
	head     int // ring start when capacity > 0 and full
}

// NewRecorder returns an unbounded recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// NewRingRecorder keeps only the most recent capacity events.
func NewRingRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: ring capacity must be positive, got %d", capacity))
	}
	return &Recorder{capacity: capacity, events: make([]Event, 0, capacity)}
}

// Record appends an event. Safe on a nil receiver (no-op).
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if r.capacity == 0 {
		r.events = append(r.events, e)
		return
	}
	if len(r.events) < r.capacity {
		r.events = append(r.events, e)
		return
	}
	r.events[r.head] = e
	r.head = (r.head + 1) % r.capacity
	r.dropped++
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Dropped returns how many events the ring discarded.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Events returns the retained events in chronological order (copies).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.head:]...)
	out = append(out, r.events[:r.head]...)
	return out
}

// CountByKind tallies retained events per kind.
func (r *Recorder) CountByKind() map[Kind]int {
	counts := make(map[Kind]int)
	if r == nil {
		return counts
	}
	for _, e := range r.events {
		counts[e.Kind]++
	}
	return counts
}

// WriteText dumps the trace in chronological order, one line per event.
func (r *Recorder) WriteText(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV dumps the trace as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "tick,kind,task,machine,value"); err != nil {
		return err
	}
	for _, e := range r.Events() {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%g\n", e.Tick, e.Kind, e.TaskID, e.Machine, e.Value); err != nil {
			return err
		}
	}
	return nil
}
