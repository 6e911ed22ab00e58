// Package machine models one heterogeneous compute node: a worker with a
// bounded FCFS local queue (paper: size six including the executing task),
// busy-time accounting for the cost study, and the probabilistic
// machine-availability view (tail PCT) that robustness-based mappers
// consume.
package machine

import (
	"errors"
	"fmt"

	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/task"
)

// ErrQueueFull is returned by Enqueue when every slot is taken.
var ErrQueueFull = errors.New("machine: queue full")

// Machine is a single compute node. It is owned by one simulator goroutine
// and is not safe for concurrent mutation.
type Machine struct {
	ID       int
	Name     string
	Price    float64 // dollars per hour of busy time (cost model)
	QueueCap int     // total capacity including the executing task

	executing *task.Task
	pending   []*task.Task

	busyTicks int64
	runStart  int64

	// alive is the scenario-engine membership flag: a failed (or not yet
	// joined) machine accepts no work, reports no free slots, and never
	// starts tasks. All machines start alive.
	alive bool

	// speed is the current performance degradation factor: tasks on this
	// machine take speed× their nominal execution time (1 = nominal,
	// 2 = half speed). runFactor freezes the factor the executing task
	// started under, so a mid-run degradation never perturbs an already
	// scheduled completion event.
	speed     float64
	runFactor float64

	// version counts queue mutations (enqueue, start, finish, removal).
	// Mapping heuristics key their per-(task, machine) evaluation caches on
	// it: a cached evaluation is valid exactly while the machine's version
	// is unchanged, so committing an assignment invalidates only the
	// committed machine's column.
	version uint64
}

// Version returns the monotonically increasing queue-mutation counter.
func (m *Machine) Version() uint64 { return m.version }

// BumpVersion invalidates every cached evaluation of this machine without
// mutating its queue. The simulator calls it when the belief PET refreshes:
// the queue is unchanged but every distribution it was evaluated under is
// stale.
func (m *Machine) BumpVersion() { m.version++ }

// New creates an idle machine at nominal speed.
func New(id int, name string, queueCap int, price float64) *Machine {
	if queueCap < 1 {
		panic(fmt.Sprintf("machine: queue capacity must be >= 1, got %d", queueCap))
	}
	return &Machine{ID: id, Name: name, QueueCap: queueCap, Price: price, alive: true, speed: 1, runFactor: 1}
}

// Alive reports whether the machine is part of the active fleet.
func (m *Machine) Alive() bool { return m.alive }

// Speed returns the current performance degradation factor (1 = nominal).
func (m *Machine) Speed() float64 { return m.speed }

// RunFactor returns the degradation factor the executing task started
// under. It equals Speed unless a degradation event fired mid-run.
func (m *Machine) RunFactor() float64 { return m.runFactor }

// SetSpeed changes the degradation factor for subsequently started tasks
// and bumps the queue version (scaled execution profiles changed, so every
// cached evaluation against this machine is stale). It panics on a
// non-positive factor: scenario validation rejects those up front.
func (m *Machine) SetSpeed(factor float64) {
	if factor <= 0 {
		panic(fmt.Sprintf("machine: speed factor must be positive, got %v", factor))
	}
	m.speed = factor
	m.version++
}

// Fail takes the machine out of the fleet at tick now, returning every task
// it held — the executing task first (its busy time up to now is billed),
// then the pending queue in FCFS order — for the simulator to requeue or
// drop per the scenario's failure policy. Failing an already-down machine
// is a no-op returning nil.
func (m *Machine) Fail(now int64) []*task.Task {
	if !m.alive {
		return nil
	}
	var held []*task.Task
	if m.executing != nil {
		held = append(held, m.FinishExecuting(now))
	}
	held = append(held, m.pending...)
	m.pending = nil
	m.alive = false
	m.version++
	return held
}

// Recover returns a failed machine to the fleet, idle and empty. Its speed
// factor is retained (a recovered machine may still be degraded).
// Recovering an alive machine is a no-op.
func (m *Machine) Recover() {
	if m.alive {
		return
	}
	m.alive = true
	m.version++
}

// Executing returns the running task, or nil when idle.
func (m *Machine) Executing() *task.Task { return m.executing }

// Pending returns the queued (not yet executing) tasks in FCFS order. The
// returned slice is the machine's own; callers must not mutate it.
func (m *Machine) Pending() []*task.Task { return m.pending }

// QueueLen returns the number of tasks on the machine, counting the
// executing one.
func (m *Machine) QueueLen() int {
	n := len(m.pending)
	if m.executing != nil {
		n++
	}
	return n
}

// FreeSlots returns how many more tasks can be enqueued. A dead machine
// has no free slots, which is the single gate that keeps every mapping
// heuristic — scalar and probabilistic alike — away from it.
func (m *Machine) FreeSlots() int {
	if !m.alive {
		return 0
	}
	return m.QueueCap - m.QueueLen()
}

// Idle reports whether the machine could start a task: alive with nothing
// executing.
func (m *Machine) Idle() bool { return m.alive && m.executing == nil }

// Enqueue appends t to the local queue.
func (m *Machine) Enqueue(t *task.Task) error {
	if m.FreeSlots() <= 0 {
		return ErrQueueFull
	}
	t.State = task.StateQueued
	t.Machine = m.ID
	m.pending = append(m.pending, t)
	m.version++
	return nil
}

// StartNext promotes the queue head to executing at tick now and returns
// it, or nil if the queue is empty or something is already running.
func (m *Machine) StartNext(now int64) *task.Task {
	if !m.alive || m.executing != nil || len(m.pending) == 0 {
		return nil
	}
	t := m.pending[0]
	copy(m.pending, m.pending[1:])
	m.pending = m.pending[:len(m.pending)-1]
	m.executing = t
	m.runStart = now
	m.runFactor = m.speed
	m.version++
	t.State = task.StateRunning
	t.Start = now
	return t
}

// FinishExecuting clears the executing slot at tick now, accumulating busy
// time, and returns the task. It panics if nothing is running (a simulator
// bug, not a recoverable condition).
func (m *Machine) FinishExecuting(now int64) *task.Task {
	if m.executing == nil {
		panic("machine: FinishExecuting on idle machine")
	}
	t := m.executing
	m.busyTicks += now - m.runStart
	m.executing = nil
	m.version++
	return t
}

// RemovePending removes the given task from the pending queue, returning
// false if it is not there.
func (m *Machine) RemovePending(t *task.Task) bool {
	for i, q := range m.pending {
		if q == t {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			m.version++
			return true
		}
	}
	return false
}

// BusyTicks returns the accumulated busy time, including the in-progress
// run up to tick now.
func (m *Machine) BusyTicks(now int64) int64 {
	b := m.busyTicks
	if m.executing != nil && now > m.runStart {
		b += now - m.runStart
	}
	return b
}

// Head returns the executing task (nil when idle), the unconditioned
// execution-time PMF of the degradation factor its run started under, and
// that PMF's origin tick: Start − ScaleDur(Consumed, f), since a run
// restored from a checkpoint starts with Consumed nominal ticks already
// done (the origin shift, not a conditioned entry, accounts for them).
// The head's completion PMF is the execution PMF shifted to origin and
// conditioned on the run still going at the clock (paper Section IV).
func (m *Machine) Head(matrix pet.View) (t *task.Task, exec *pmf.PMF, origin int64) {
	t = m.executing
	if t == nil {
		return nil, nil, 0
	}
	f := m.runFactor
	return t, matrix.Entry(t.Type, m.ID, f, 0).PMF, t.Start - pmf.ScaleDur(t.Consumed, f)
}

// TailPMF returns the PMF of the tick at which the machine finishes
// everything currently assigned to it — the tail PCT robustness-based
// mappers convolve candidate tasks against; an impulse at now for an empty
// machine. It chains completion-time PMFs through the executing task
// (Head, conditioned at now) and every pending task, bounding each
// intermediate to maxImpulses impulses (0 disables compaction). Every
// intermediate distribution is allocated in the arena (nil falls back to
// the heap); the result is valid until the arena's next Reset.
//
// drop, when non-nil, judges each task on the way, head first (the
// pruner's walk, paper Section V-A). It receives the task, its position
// among the tasks kept so far (0 = first), its probability of finishing by
// its deadline, and its completion PMF: the conditioned head before
// eviction, or a pending task's ConvolveDrop Free. A task for which drop
// returns true is removed from the machine and left out of the chain, so
// the result is the tail of the tasks kept. drop must not read the
// machine's queue, which the walk is rewriting.
func (m *Machine) TailPMF(a *pmf.Arena, now int64, matrix pet.View, mode pmf.DropMode, maxImpulses int,
	drop func(t *task.Task, pos int, success float64, dist *pmf.PMF) bool) *pmf.PMF {
	prev := a.Impulse(now)
	pos := 0
	if t, exec, origin := m.Head(matrix); t != nil {
		free := a.ShiftConditioned(exec, origin, now)
		if drop != nil && drop(t, pos, free.SuccessProb(t.Deadline), free) {
			m.FinishExecuting(now) // prev stays: the machine is free right now
		} else {
			if mode == pmf.Evict {
				free = a.EvictTail(free, t.Deadline)
			}
			prev = a.Compact(free, maxImpulses)
			pos++
		}
	}
	kept := m.pending[:0]
	for _, t := range m.pending {
		// Consumed > 0 (restored from a checkpoint): the matrix's cached
		// conditioned view, bit-identical to RemainingAfter on the heap.
		exec := matrix.Entry(t.Type, m.ID, m.speed, t.Consumed).PMF
		var next *pmf.PMF
		if drop == nil {
			// Nothing reads the task's success: the chain step skips it.
			next = a.ChainStep(prev, exec, t.Deadline, mode, maxImpulses)
		} else {
			res := a.ConvolveDrop(prev, exec, t.Deadline, mode)
			if drop(t, pos, res.Success, res.Free) {
				continue
			}
			next = a.Compact(res.Free, maxImpulses)
		}
		kept = append(kept, t)
		prev = next
		pos++
	}
	if len(kept) < len(m.pending) {
		m.pending = kept
		m.version++
	}
	return prev
}

// ExpectedReady returns the scalar expected tick at which the machine could
// begin one more task: now + expected remaining execution + expected
// pending executions. Scalar heuristics (MM, MSD, MMU) build their
// expected completion times on top of this. Each pending task costs one
// stored profile mean, and the executing head one walk of its entry's
// sparse index: O(impulses + queue length) for compacted PET entries. An
// entry without an index (a degraded machine's ScaleTicks PMF, a learned
// belief cell) falls back to a dense scan of the head.
func (m *Machine) ExpectedReady(now int64, matrix pet.View) float64 {
	ready := float64(now)
	if t, exec, origin := m.Head(matrix); t != nil {
		ready = pmf.CondMeanShifted(exec, origin, now)
	}
	for _, t := range m.pending {
		ready += matrix.Entry(t.Type, m.ID, m.speed, t.Consumed).Prof.Mean()
	}
	return ready
}

// Reset returns the machine to its initial idle state (used by tests and
// by trial reuse in benchmarks).
func (m *Machine) Reset() {
	m.executing = nil
	m.pending = nil
	m.busyTicks = 0
	m.runStart = 0
	m.alive = true
	m.speed = 1
	m.runFactor = 1
	m.version++
}
