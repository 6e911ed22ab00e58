package cluster

import (
	"fmt"

	"taskprune/internal/metrics"
	"taskprune/internal/task"
	"taskprune/internal/workload"
)

// The stepping path. RunSource's sequential run and the serve daemon's
// live driving share one loop, cut at submission boundaries:
//
//   - begin allocates the cluster collector and readies every datacenter.
//   - submit(t) fires every pending event strictly before t.Arrival
//     (stepBefore), then dispatches t — arrivals win ties. Routing moves
//     the engine's one clock (e.now, which Now reports) to t.Arrival, as
//     stepping moves it to each event's tick.
//   - stepBefore(horizon) is the one stepping loop over nextEvent's merge
//     of the engine queue and the datacenters' queues: submit's catch-up,
//     and the batch drain at horizon math.MaxInt64.
//   - finish exits anything still parked in the gate buffer, flushes the
//     telemetry sampler at the cluster-wide end of time, and finalizes.
//
// RunSource is begin, submit per pulled task, stepBefore(math.MaxInt64),
// finish. Live driving exposes the same steps to a server, where
// submissions trickle in over wall time and between them the engine must
// settle its in-flight work so status endpoints see completions, not a
// frozen clock: StartLive is begin, SubmitLive is submit, and FinishLive
// is Quiesce plus finish. Quiesce steps pending events only while tasks
// are in flight. It deliberately does NOT run the event queue dry:
// far-future scenario events (a dc-fail at tick 10⁶) must wait for the
// clock to be pulled forward by real submissions, and gate-buffered tasks
// legitimately wait for a recovery event with nothing else pending.
// Submitting a workload task by task and finishing therefore reproduces
// RunSource over the same tasks byte for byte whenever no event is
// scheduled past the last exit (the equivalence test pins this).
//
// Like RunSource, live driving is single-goroutine: the daemon's pump owns
// the engine, and HTTP handlers see only published snapshots.

// begin allocates the cluster collector and readies every datacenter for
// stepping; rec, when non-nil, receives every retired task.
func (e *Engine) begin(rec workload.Recycler) {
	e.collector = metrics.NewStream(e.matrix.NumTypes(), metrics.DefaultTrim)
	e.recycler = rec
	for _, d := range e.dcs {
		d.sim.Begin(e.collector)
		d.sim.SetRecycler(rec)
	}
}

// submit admits one task at its stamped Arrival tick: pending events
// strictly before the arrival fire first, then the task routes through
// the gate and dispatcher. A task stamped before the engine clock (Now)
// is rejected before anything counts or routes it.
func (e *Engine) submit(t *task.Task) error {
	if t.Arrival < e.now {
		return fmt.Errorf("cluster: task %d arrives at %d, before the engine clock %d", t.ID, t.Arrival, e.now)
	}
	if err := e.stepBefore(t.Arrival); err != nil {
		return err
	}
	return e.dispatch(t)
}

// stepBefore fires every pending event strictly before horizon, in the
// global tie order nextEvent defines.
func (e *Engine) stepBefore(horizon int64) error {
	for {
		tick, dc, ok := e.nextEvent()
		if !ok || tick >= horizon {
			return nil
		}
		if err := e.stepNext(tick, dc); err != nil {
			return err
		}
	}
}

// stepNext fires the event nextEvent selected: it advances the engine
// clock and steps the engine queue (dc -1) or datacenter dc.
func (e *Engine) stepNext(tick int64, dc int) error {
	e.now = tick
	if dc < 0 {
		return e.stepEngineEvent()
	}
	e.dcs[dc].sim.StepEvent()
	return nil
}

// finish is RunSource's and FinishLive's tail: exit anything still parked
// in the gate buffer, flush the engine's telemetry shard at the
// cluster-wide end of simulated time, and finalize — the cluster aggregate
// plus each datacenter's own statistics. The engine is spent afterwards.
func (e *Engine) finish() (metrics.TrialStats, []metrics.TrialStats) {
	e.flushGateBuffer()
	// The sequential path advances e.now on per-DC events while the
	// wide-window driver leaves those to the workers, so e.now alone is
	// driver-dependent; the max over the datacenters' clocks is not.
	end := e.now
	for _, d := range e.dcs {
		if t := d.sim.Now(); t > end {
			end = t
		}
	}
	e.sampler.Flush(end)
	perDC := make([]metrics.TrialStats, len(e.dcs))
	total := 0.0
	for i, d := range e.dcs {
		perDC[i] = d.sim.Finalize()
		total += perDC[i].TotalCost
	}
	return e.collector.Finalize(total), perDC
}

// StartLive arms the engine for incremental driving. rec, when non-nil,
// receives every retired task (the daemon passes its LiveSource so task
// structs return to the pool). Live driving is sequential by construction —
// a Parallel config is rejected rather than silently ignored.
func (e *Engine) StartLive(rec workload.Recycler) error {
	if e.liveOn {
		return fmt.Errorf("cluster: StartLive called twice")
	}
	if e.collector != nil {
		return fmt.Errorf("cluster: engine already driven by RunSource; engines are single-use")
	}
	if e.cfg.Parallel {
		return fmt.Errorf("cluster: live driving is sequential; build the engine with Parallel false")
	}
	e.begin(rec)
	e.liveOn = true
	return nil
}

// SubmitLive admits one task at its stamped Arrival tick (see submit).
// The caller owns the simulated clock and stamps ticks via Now.
func (e *Engine) SubmitLive(t *task.Task) error {
	if !e.liveOn {
		return fmt.Errorf("cluster: SubmitLive before StartLive")
	}
	return e.submit(t)
}

// Quiesce settles the system after a burst: it steps pending events while
// any submitted task is still in flight (queued in a datacenter, bouncing
// through gate retries, or parked in the gate buffer awaiting a scheduled
// recovery). It returns with either nothing in flight or nothing left to
// step — gate-buffered tasks with no pending recovery stay put, waiting on
// future events.
func (e *Engine) Quiesce() error {
	if !e.liveOn {
		return fmt.Errorf("cluster: Quiesce before StartLive")
	}
	for e.InFlight() > 0 {
		tick, dc, ok := e.nextEvent()
		if !ok {
			return nil
		}
		if err := e.stepNext(tick, dc); err != nil {
			return err
		}
	}
	return nil
}

// InFlight counts submitted tasks that have not yet exited: every exit
// path — completion, miss, drop at any layer, gate shed, undetected-outage
// loss — observes the collector, so submissions minus observations is the
// live set wherever those tasks currently sit.
func (e *Engine) InFlight() int {
	if e.collector == nil {
		return 0
	}
	return e.arrivals - e.collector.Total()
}

// Submitted returns how many tasks have reached the dispatcher gate: every
// task SubmitLive (or a RunSource pull) has routed.
func (e *Engine) Submitted() int { return e.arrivals }

// Now returns the engine's clock: the tick of the last event or submission
// it processed (routing a submission moves the clock to its arrival). Live
// producers stamp the next submission's Arrival at or after this.
func (e *Engine) Now() int64 { return e.now }

// LiveCounts snapshots the raw exit tallies mid-run (zero before
// StartLive).
func (e *Engine) LiveCounts() metrics.Counts { return e.collector.Counts() }

// LiveStats computes the trimmed-window trial statistics over everything
// observed so far, without finalizing the datacenters — a pure mid-run
// read for status reporting. Cost fields are zero (machine-time cost is
// only summed at FinishLive).
func (e *Engine) LiveStats() metrics.TrialStats {
	if e.collector == nil {
		return metrics.TrialStats{}
	}
	return e.collector.Finalize(0)
}

// FinishLive ends a live run: it quiesces in-flight work, then runs
// finish. The engine is spent afterwards.
func (e *Engine) FinishLive() (metrics.TrialStats, []metrics.TrialStats, error) {
	if !e.liveOn {
		return metrics.TrialStats{}, nil, fmt.Errorf("cluster: FinishLive before StartLive")
	}
	if err := e.Quiesce(); err != nil {
		return metrics.TrialStats{}, nil, err
	}
	e.liveOn = false
	st, perDC := e.finish()
	return st, perDC, nil
}
