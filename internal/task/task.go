// Package task defines the unit of work flowing through the heterogeneous
// computing system: typed, deadline-constrained, independent tasks.
package task

import "fmt"

// Type identifies a task type (an index into the PET matrix rows). The
// paper's main workload has twelve types derived from SPECint benchmarks;
// the video workload has four transcoding types.
type Type int

// State tracks a task through its lifecycle.
type State int

const (
	// StatePending: in the batch queue, not yet mapped.
	StatePending State = iota
	// StateQueued: mapped to a machine queue, waiting to execute.
	StateQueued
	// StateRunning: currently executing on a machine.
	StateRunning
	// StateCompleted: finished execution before its deadline.
	StateCompleted
	// StateMissed: finished execution after its deadline (counted as a
	// miss; under eviction it is killed at the deadline instead).
	StateMissed
	// StateDropped: removed by the pruner or by deadline expiry before
	// completing.
	StateDropped
	// StateApprox: evicted at its deadline after receiving enough of its
	// execution to deliver a degraded-but-useful result (approximate
	// computing extension; the paper's second future-work item).
	StateApprox
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateCompleted:
		return "completed"
	case StateMissed:
		return "missed"
	case StateDropped:
		return "dropped"
	case StateApprox:
		return "approx"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Task is one deadline-constrained request. Times are integer simulation
// ticks (~milliseconds).
type Task struct {
	ID       int   // unique, in arrival order
	Type     Type  // row of the PET matrix
	Arrival  int64 // arrival tick
	Deadline int64 // hard deadline tick (absolute)

	// TrueExec holds the pre-sampled actual execution time of this task on
	// each machine (indexed by machine ID). The mapper never sees it; the
	// simulator uses it once the task starts. Sampling per-(task, machine)
	// up front keeps trials reproducible regardless of mapping order.
	TrueExec []int64

	// Mutable simulation state.
	State   State
	Machine int   // machine ID once mapped, else -1
	Start   int64 // tick of the latest execution start (valid in Running and later)
	Finish  int64 // tick the task left the system (completed/missed/dropped)
	Defers  int   // number of times the pruner deferred mapping this task

	// Consumed is the nominal execution progress the task carries into
	// its next run: the credit a checkpoint restore (or a cross-DC
	// failover of that credit) left it with, zero otherwise. Under
	// checkpointing it is also the task's restore point: a failure banks
	// its last completed checkpoint here.
	Consumed int64
}

// New constructs a pending task. TrueExec is filled in by the workload
// generator.
func New(id int, typ Type, arrival, deadline int64) *Task {
	return &Task{ID: id, Type: typ, Arrival: arrival, Deadline: deadline, Machine: -1}
}

// Expired reports whether the task's deadline has passed at tick now. A
// task completing exactly at its deadline still succeeds (Eq. 1 uses
// t <= δ), so expiry is strict.
func (t *Task) Expired(now int64) bool { return now > t.Deadline }

// Done reports whether the task has left the system.
func (t *Task) Done() bool {
	switch t.State {
	case StateCompleted, StateMissed, StateDropped, StateApprox:
		return true
	default:
		return false
	}
}

// Remaining returns the execution time still owed on machine mi, at least
// one tick while the task is unfinished.
func (t *Task) Remaining(mi int) int64 {
	r := t.TrueExec[mi] - t.Consumed
	if r < 1 {
		r = 1
	}
	return r
}

// String implements fmt.Stringer for debugging and trace output.
func (t *Task) String() string {
	return fmt.Sprintf("task{id=%d type=%d arr=%d dl=%d %s}", t.ID, t.Type, t.Arrival, t.Deadline, t.State)
}
