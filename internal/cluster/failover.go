// The dispatcher: the engine's event queue, the one routing decision every
// task reaching the dispatcher goes through (route), and detection-based
// failover — the engine-side half of scenario.FailoverPolicy.
//
// PR 6 split the mapper's *knowledge* of execution times from the ground
// truth; this file makes the same split for fleet health. Each datacenter
// carries two flags: alive (ground truth, moved by dc-fail/dc-recover) and
// healthy (what the dispatcher believes, moved by the simulated health
// monitor). Under the oracle policy the two are identical and every
// detection path below is dormant — the engine is byte-identical to one
// built before detection existed. Under heartbeat detection the belief lags the truth
// in both directions:
//
//   - A failed datacenter keeps its healthy flag until the monitor misses
//     SuspectAfter consecutive heartbeats (observed at multiples of
//     HeartbeatEvery on the cluster clock; a truth event at tick T settles
//     before the heartbeat observation at T). Arrivals routed into that
//     window bounce back after the per-dispatch detection delay and are
//     re-dispatched under capped exponential backoff; tasks drained by the
//     outage are held and only salvaged once the outage becomes known —
//     at detection, or at the recovery if that comes first.
//   - A recovered datacenter re-enters rotation only at its first
//     post-recovery heartbeat plus the probation window.
//
// All of it runs through the engine queue, which holds the scenario's
// dc-fail/dc-recover truth events beside the gate events below, ordered by
// (tick, schedule order). The truth events are scheduled first, so within
// a tick they fire in declaration order before any gate event; the
// cluster's tie order is arrivals, then the engine queue, then per-DC
// internals. Detection and trust ticks are computed in closed form from
// the heartbeat schedule and the pending dc-recover events, so the queue
// holds only O(outages + in-flight retries) events — never a periodic
// heartbeat stream.
//
// The bounded gate buffer rides the same belief: when no datacenter is
// believed healthy, arrivals (and re-dispatched tasks) enqueue in a FIFO
// of GateBuffer capacity instead of dropping at the gate, drain on the
// next believed-health transition, and shed per the policy's ShedKind on
// overflow. The buffer also works under the oracle kind — it is the
// ROADMAP's "arrivals queue rather than drop while every DC is down".
package cluster

import (
	"fmt"

	"taskprune/internal/scenario"
	"taskprune/internal/task"
	"taskprune/internal/telemetry"
)

// eventKind classifies an engine-level event.
type eventKind int

const (
	// evDCFail and evDCRecover are the scenario's ground-truth whole-DC
	// transitions, scheduled by New in declaration order.
	evDCFail eventKind = iota
	evDCRecover
	// evDetect marks a datacenter believed-down: the health monitor
	// missed its SuspectAfter-th consecutive heartbeat.
	evDetect
	// evTrust returns a recovered datacenter to rotation after its first
	// post-recovery heartbeat plus the probation window, and drains the
	// gate buffer into the newly believed-healthy fleet.
	evTrust
	// evSalvage releases the tasks an undetected dc-fail drained: they
	// re-enter the dispatcher at the tick the outage became known
	// (detection, or the recovery if that came first).
	evSalvage
	// evRedispatch retries a dispatch that bounced off a
	// down-but-undetected datacenter, after the detection delay plus
	// backoff.
	evRedispatch
)

// engineEvent is one pending entry in the engine's event queue.
type engineEvent struct {
	tick int64
	seq  int // schedule order: the tie-break within a tick
	kind eventKind
	dc   int

	// drop is an evDCFail's policy: the held tasks exit instead of failing
	// over.
	drop bool
	// epoch guards evDetect/evTrust against truth transitions that
	// happened after scheduling: a stale observation must not flip the
	// belief of a datacenter whose truth has since moved on.
	epoch int
	// failTick is the true failure tick behind an evDetect (lag metric).
	failTick int64
	// attempt counts failed dispatches of an evRedispatch's task.
	attempt int
	// task is the bounced task of an evRedispatch.
	task *task.Task
	// tasks are the held drained tasks of an evSalvage.
	tasks []*task.Task
}

// eventHeap is a binary min-heap of engine events ordered by (tick, seq) —
// the deterministic fire order the drivers share.
type eventHeap []engineEvent

func (h eventHeap) before(i, j int) bool {
	return h[i].tick < h[j].tick || (h[i].tick == h[j].tick && h[i].seq < h[j].seq)
}

func (h eventHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h eventHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h.before(l, m) {
			m = l
		}
		if r < len(h) && h.before(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// push schedules an engine event, stamping its schedule order.
func (e *Engine) push(ev engineEvent) {
	ev.seq = e.eventSeq
	e.eventSeq++
	e.events = append(e.events, ev)
	e.events.up(len(e.events) - 1)
}

// pop removes and returns the earliest engine event.
func (e *Engine) pop() engineEvent {
	ev := e.events[0]
	last := len(e.events) - 1
	e.events[0] = e.events[last]
	e.events[last] = engineEvent{} // drop task references
	e.events = e.events[:last]
	if last > 0 {
		e.events.down(0)
	}
	return ev
}

// nextEngineTick peeks the engine queue (the drivers' sync source after
// arrivals).
func (e *Engine) nextEngineTick() (int64, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].tick, true
}

// heartbeatAt returns the first heartbeat observation at or after tick t
// under cadence hb (heartbeats fire at every multiple of hb). A truth
// event at tick T settles before the observation at T, so a failure at a
// heartbeat tick misses that very heartbeat and a recovery at one is seen
// by it.
func heartbeatAt(t, hb int64) int64 {
	return (t + hb - 1) / hb * hb
}

// nextRecoverTick returns dc's earliest pending recovery — detection that
// would land at or after it never fires (the monitor's missed-heartbeat
// count resets before reaching the threshold). It scans the whole queue,
// but runs at most once per dc-fail.
func (e *Engine) nextRecoverTick(dc int) (tick int64, ok bool) {
	for _, ev := range e.events {
		if ev.kind == evDCRecover && ev.dc == dc && (!ok || ev.tick < tick) {
			tick, ok = ev.tick, true
		}
	}
	return tick, ok
}

// scheduleDetection handles a dc-fail the monitor has not seen: the
// datacenter's simulator fails for real (machines down, tasks drained or
// dropped per the event policy) but its healthy flag survives until the
// suspicion threshold trips. Drained tasks are held for salvage at the
// tick the outage becomes known.
func (e *Engine) scheduleDetection(d *DC, failTick int64, drop bool) {
	hb := e.fo.EffectiveHeartbeatEvery()
	detectAt := heartbeatAt(failTick, hb) + int64(e.fo.EffectiveSuspectAfter()-1)*hb
	recoverAt, hasRecover := e.nextRecoverTick(d.index)
	if !hasRecover || detectAt < recoverAt {
		e.push(engineEvent{tick: detectAt, kind: evDetect, dc: d.index, epoch: e.epochs[d.index], failTick: failTick})
	}
	drained := d.sim.FailDC(failTick, drop, nil)
	if len(drained) == 0 {
		return
	}
	salvageAt := detectAt
	if hasRecover && recoverAt < salvageAt {
		salvageAt = recoverAt
	}
	e.push(engineEvent{tick: salvageAt, kind: evSalvage, dc: d.index, tasks: drained})
}

// stepEngineEvent fires the earliest engine event and ticks the engine's
// telemetry shard. The caller has already set e.now to its tick, and — in
// the wide-window driver — quiesced every worker at that tick, so touching
// the simulators directly here reproduces the sequential interleave
// exactly, and the shard sequence is identical across drivers.
func (e *Engine) stepEngineEvent() error {
	err := e.applyEngineEvent(e.pop())
	e.sampler.Tick(e.now)
	return err
}

// applyEngineEvent fires one engine event. A dc-fail or dc-recover is a
// ground-truth transition. Under the oracle failover policy the
// dispatcher's belief moves in the same step: a dc-fail drains the
// datacenter through the simulator's FailDC and (under the Requeue policy)
// re-dispatches the drained tasks to surviving datacenters in drain order.
// Under heartbeat detection only the truth moves there; the belief follows
// through the gate events that scheduleDetection and the recovery
// probation plant.
func (e *Engine) applyEngineEvent(ev engineEvent) error {
	d := e.dcs[ev.dc]
	switch ev.kind {
	case evDCFail:
		if !d.alive {
			return nil // failing a failed datacenter is a no-op, like machine.Fail
		}
		e.epochs[ev.dc]++
		d.alive = false
		if e.fo.Detection() && d.healthy {
			e.scheduleDetection(d, ev.tick, ev.drop)
			return nil
		}
		// Detected instantly: the oracle, or a refail during probation
		// (the monitor never re-trusted the datacenter, so nothing about
		// the belief changes — the drained tasks reroute immediately).
		d.healthy = false
		drained := d.sim.FailDC(ev.tick, ev.drop, e.scratch[:0])
		var err error
		for _, t := range drained {
			if err = e.enter(t, ev.tick, 0, true, d); err != nil {
				break
			}
		}
		e.scratch = drained[:0]
		return err
	case evDCRecover:
		if d.alive {
			return nil // recovering an in-service datacenter is a no-op
		}
		e.epochs[ev.dc]++
		d.alive = true
		d.sim.RecoverDC(ev.tick)
		if !e.fo.Detection() {
			d.healthy = true
			return e.drainGateBuffer(ev.tick)
		}
		if !d.healthy {
			// Re-trust only after the first post-recovery heartbeat plus
			// the probation window.
			hb := e.fo.EffectiveHeartbeatEvery()
			e.push(engineEvent{tick: heartbeatAt(ev.tick, hb) + e.fo.Probation, kind: evTrust, dc: ev.dc, epoch: e.epochs[ev.dc]})
		}
	case evDetect:
		if ev.epoch != e.epochs[ev.dc] {
			return nil // truth moved on; the observation is stale
		}
		d.healthy = false
		e.gateStats.Detections++
		e.gateStats.DetectionLagTicks += ev.tick - ev.failTick
		e.pr.detectLag.Observe(float64(ev.tick - ev.failTick))
	case evTrust:
		if ev.epoch != e.epochs[ev.dc] {
			return nil
		}
		d.healthy = true
		return e.drainGateBuffer(ev.tick)
	case evSalvage:
		for _, t := range ev.tasks {
			if err := e.enter(t, ev.tick, 0, true, nil); err != nil {
				return err
			}
		}
	case evRedispatch:
		if ev.task.Expired(ev.tick) || (e.fo.MaxRetries > 0 && ev.attempt > e.fo.MaxRetries) {
			e.exitAtGate(ev.task, ev.tick, &e.gateStats.LostUndetected)
			e.lostByDC[ev.dc]++
			return nil
		}
		e.gateStats.Retries++
		return e.enter(ev.task, ev.tick, ev.attempt, true, nil)
	}
	return nil
}

// routeArrival routes a fresh arrival at its arrival tick, moving the
// engine clock there, and returns the datacenter the caller must admit it
// into (drivers differ in how — direct Admit or worker channel), or -1
// when the gate consumed it. It also counts the arrival, times the
// dispatch span, and ticks the engine's telemetry shard — engine-owned
// state only, so the wide-window driver may call it while workers are
// mid-window.
func (e *Engine) routeArrival(t *task.Task) (int, error) {
	t0 := e.phases.Start()
	e.arrivals++
	e.now = t.Arrival
	d, err := e.route(t, t.Arrival, 0, false, nil)
	if d >= 0 {
		e.admitted++
	}
	e.phases.Observe(telemetry.PhaseDispatch, t0)
	e.sampler.Tick(e.now)
	return d, err
}

// enter routes a task that re-enters the dispatcher after its arrival tick
// — a salvaged or oracle-drained task, a bounced retry, or a buffer drain
// — and injects it into the picked datacenter's batch queue.
func (e *Engine) enter(t *task.Task, now int64, attempt int, failover bool, from *DC) error {
	d, err := e.route(t, now, attempt, failover, from)
	if d >= 0 {
		e.injected++
		e.dcs[d].sim.InjectRequeued(t, now)
	}
	return err
}

// route is the dispatcher's one routing decision, for every task that
// reaches it: attempt counts the task's prior failed dispatches, and
// failover marks a re-route after an outage. With no believed-healthy
// datacenter it records a gate dispatch, then buffers the task, or exits
// it through from — the dead datacenter that drained it under oracle
// detection, so the drop counts in that datacenter's stats — or drops it
// at the gate. Otherwise it records the policy's pick; a pick that is down
// but undetected bounces the task into retry limbo. It returns the picked
// datacenter, or -1 when the gate consumed the task. A custom Policy
// returning an out-of-range index or a datacenter not believed healthy is
// an error, never a panic or a silent injection into a dead fleet.
func (e *Engine) route(t *task.Task, now int64, attempt int, failover bool, from *DC) (int, error) {
	if !e.anyHealthy() {
		e.record(Dispatch{Tick: now, TaskID: t.ID, DC: -1, Failover: failover, Attempt: attempt})
		switch {
		case e.fo.Buffered():
			e.bufferTask(t, now)
		case from != nil:
			from.sim.DropInjected(t, now)
		default:
			e.exitAtGate(t, now, &e.gateStats.Dropped)
		}
		return -1, nil
	}
	d := e.policy.Pick(now, t, e.dcs)
	if d < 0 || d >= len(e.dcs) || !e.dcs[d].healthy {
		return -1, fmt.Errorf("cluster: policy %q picked datacenter %d (believed-healthy datacenters only)", e.policy.Name(), d)
	}
	e.record(Dispatch{Tick: now, TaskID: t.ID, DC: d, Failover: failover, Attempt: attempt})
	if !e.dcs[d].alive {
		e.bounceDispatch(t, d, attempt+1, now)
		return -1, nil
	}
	return d, nil
}

// bounceDispatch puts a task whose dispatch landed on a
// down-but-undetected datacenter into retry limbo: it re-enters the
// dispatcher after the detection delay plus the attempt's backoff.
// attempt counts failed dispatches so far, this one included.
func (e *Engine) bounceDispatch(t *task.Task, dc, attempt int, now int64) {
	e.gateStats.Bounced++
	delay := e.fo.EffectiveBounceAfter() + e.fo.Backoff(attempt)
	e.push(engineEvent{tick: now + delay, kind: evRedispatch, dc: dc, task: t, attempt: attempt})
}

// bufferTask enqueues a task at the gate, shedding per the policy when the
// buffer is full. Only called with GateBuffer > 0.
func (e *Engine) bufferTask(t *task.Task, now int64) {
	e.gateStats.Buffered++
	if len(e.buf) < e.fo.GateBuffer {
		e.buf = append(e.buf, t)
		if len(e.buf) > e.gateStats.MaxQueueDepth {
			e.gateStats.MaxQueueDepth = len(e.buf)
		}
		return
	}
	switch e.fo.Shed {
	case scenario.ShedDropOldest:
		victim := e.buf[0]
		copy(e.buf, e.buf[1:])
		e.buf[len(e.buf)-1] = t
		e.exitAtGate(victim, now, &e.gateStats.Shed)
	case scenario.ShedDeadlineAware:
		// Shed the least-likely-on-time task: every buffered task waits
		// from the same tick, so the earliest absolute deadline is the
		// monotone proxy for the lowest on-time probability. Ties break
		// toward the longest-buffered task; the incoming task is shed when
		// it ties the buffer's minimum.
		vi := 0
		for i := 1; i < len(e.buf); i++ {
			if e.buf[i].Deadline < e.buf[vi].Deadline {
				vi = i
			}
		}
		if e.buf[vi].Deadline < t.Deadline {
			victim := e.buf[vi]
			copy(e.buf[vi:], e.buf[vi+1:])
			e.buf[len(e.buf)-1] = t
			e.exitAtGate(victim, now, &e.gateStats.Shed)
		} else {
			e.exitAtGate(t, now, &e.gateStats.Shed)
		}
	default: // ShedDropNewest
		e.exitAtGate(t, now, &e.gateStats.Shed)
	}
}

// drainGateBuffer re-dispatches buffered tasks in FIFO order after a
// believed-health transition brought a datacenter back into rotation.
func (e *Engine) drainGateBuffer(now int64) error {
	for len(e.buf) > 0 && e.anyHealthy() {
		t := e.buf[0]
		copy(e.buf, e.buf[1:])
		e.buf[len(e.buf)-1] = nil
		e.buf = e.buf[:len(e.buf)-1]
		if err := e.enter(t, now, 0, false, nil); err != nil {
			return err
		}
	}
	return nil
}

// flushGateBuffer sheds whatever the trial's end still finds buffered —
// the cluster went dark and never came back.
func (e *Engine) flushGateBuffer() {
	for i, t := range e.buf {
		e.exitAtGate(t, e.now, &e.gateStats.Shed)
		e.buf[i] = nil
	}
	e.buf = e.buf[:0]
}

// exitAtGate exits a task that leaves at the dispatcher — dropped at the
// gate, shed from the gate buffer, or lost to an undetected outage — and
// bumps tally, that loss class's GateStats field. No datacenter holds the
// task, so only the cluster aggregate sees it.
func (e *Engine) exitAtGate(t *task.Task, now int64, tally *int) {
	t.State = task.StateDropped
	t.Finish = now
	e.collector.Observe(t)
	*tally++
	if e.recycler != nil {
		e.recycler.Recycle(t)
	}
}

func (e *Engine) anyHealthy() bool {
	for _, d := range e.dcs {
		if d.healthy {
			return true
		}
	}
	return false
}
