// Detection-based failover: the engine-side half of scenario.FailoverPolicy.
//
// PR 6 split the mapper's *knowledge* of execution times from the ground
// truth; this file makes the same split for fleet health. Each datacenter
// carries two flags: alive (ground truth, moved by dc-fail/dc-recover) and
// healthy (what the dispatcher believes, moved by the simulated health
// monitor). Under the oracle policy the two are identical and every code
// path below is dormant — the engine is byte-identical to one built before
// this file existed. Under heartbeat detection the belief lags the truth
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
// All of it runs through one engine-level queue of gate events ordered by
// (tick, schedule order), merged into the cluster's deterministic tie
// order as: arrivals, then cluster-scoped truth events, then gate events,
// then per-DC internals. Detection and trust ticks are computed in closed
// form from the heartbeat schedule and the static dc-fail/dc-recover
// list, so the queue holds only O(outages + in-flight retries) events —
// never a periodic heartbeat stream.
//
// The bounded gate buffer rides the same belief: when no datacenter is
// believed healthy, arrivals (and re-dispatched tasks) enqueue in a FIFO
// of GateBuffer capacity instead of dropping at the gate, drain on the
// next believed-health transition, and shed per the policy's ShedKind on
// overflow. The buffer also works under the oracle kind — it is the
// ROADMAP's "arrivals queue rather than drop while every DC is down".
package cluster

import (
	"taskprune/internal/scenario"
	"taskprune/internal/task"
	"taskprune/internal/telemetry"
)

// gateKind classifies an engine-level gate event.
type gateKind int

const (
	// gevDetect marks a datacenter believed-down: the health monitor
	// missed its SuspectAfter-th consecutive heartbeat.
	gevDetect gateKind = iota
	// gevTrust returns a recovered datacenter to rotation after its first
	// post-recovery heartbeat plus the probation window, and drains the
	// gate buffer into the newly believed-healthy fleet.
	gevTrust
	// gevSalvage releases the tasks an undetected dc-fail drained: they
	// re-enter the dispatcher at the tick the outage became known
	// (detection, or the recovery if that came first).
	gevSalvage
	// gevRedispatch retries a dispatch that bounced off a
	// down-but-undetected datacenter, after the detection delay plus
	// backoff.
	gevRedispatch
)

// gateEvent is one pending entry in the engine's gate queue.
type gateEvent struct {
	tick int64
	seq  int // schedule order: the tie-break within a tick
	kind gateKind
	dc   int

	// epoch guards gevDetect/gevTrust against truth transitions that
	// happened after scheduling: a stale observation must not flip the
	// belief of a datacenter whose truth has since moved on.
	epoch int
	// failTick is the true failure tick behind a gevDetect (lag metric).
	failTick int64
	// attempt counts failed dispatches of a gevRedispatch's task.
	attempt int
	// task is the bounced task of a gevRedispatch.
	task *task.Task
	// tasks are the held drained tasks of a gevSalvage.
	tasks []*task.Task
}

// gateHeap is a binary min-heap of gate events ordered by (tick, seq) —
// the deterministic fire order the drivers share.
type gateHeap []gateEvent

func (h gateHeap) before(i, j int) bool {
	return h[i].tick < h[j].tick || (h[i].tick == h[j].tick && h[i].seq < h[j].seq)
}

func (h gateHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(i, p) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h gateHeap) down(i int) {
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

// pushGate schedules a gate event, stamping its schedule order.
func (e *Engine) pushGate(ev gateEvent) {
	ev.seq = e.gateSeq
	e.gateSeq++
	e.gate = append(e.gate, ev)
	e.gate.up(len(e.gate) - 1)
}

// popGate removes and returns the earliest gate event.
func (e *Engine) popGate() gateEvent {
	ev := e.gate[0]
	last := len(e.gate) - 1
	e.gate[0] = e.gate[last]
	e.gate[last] = gateEvent{} // drop task references
	e.gate = e.gate[:last]
	if last > 0 {
		e.gate.down(0)
	}
	return ev
}

// nextGateTick peeks the gate queue (the drivers' third sync source, after
// arrivals and cluster truth events).
func (e *Engine) nextGateTick() (int64, bool) {
	if len(e.gate) == 0 {
		return 0, false
	}
	return e.gate[0].tick, true
}

// heartbeatAt returns the first heartbeat observation at or after tick t
// under cadence hb (heartbeats fire at every multiple of hb). A truth
// event at tick T settles before the observation at T, so a failure at a
// heartbeat tick misses that very heartbeat and a recovery at one is seen
// by it.
func heartbeatAt(t, hb int64) int64 {
	return (t + hb - 1) / hb * hb
}

// nextRecoverTick scans the remaining cluster schedule for dc's next
// recovery — detection that would land at or after it never fires (the
// monitor's missed-heartbeat count resets before reaching the threshold).
func (e *Engine) nextRecoverTick(dc int) (int64, bool) {
	for _, ev := range e.clusterEvents[e.evPos:] {
		if ev.Kind == scenario.DCRecover && ev.DC == dc {
			return ev.Tick, true
		}
	}
	return 0, false
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
		e.pushGate(gateEvent{tick: detectAt, kind: gevDetect, dc: d.index, epoch: e.epochs[d.index], failTick: failTick})
	}
	drained := d.sim.FailDC(failTick, drop, nil)
	if len(drained) == 0 {
		return
	}
	salvageAt := detectAt
	if hasRecover && recoverAt < salvageAt {
		salvageAt = recoverAt
	}
	e.pushGate(gateEvent{tick: salvageAt, kind: gevSalvage, dc: d.index, tasks: drained})
}

// stepGateEvent fires the earliest gate event and ticks the engine's
// telemetry shard — same quiescence contract as stepClusterEvent.
func (e *Engine) stepGateEvent() error {
	err := e.applyGateEvent()
	e.sampler.Tick(e.now)
	return err
}

// applyGateEvent fires the earliest gate event. The caller has already set
// e.now to its tick, and — in the wide-window driver — quiesced every
// worker at that tick, so touching the simulators directly here reproduces the
// sequential interleave exactly.
func (e *Engine) applyGateEvent() error {
	ev := e.popGate()
	switch ev.kind {
	case gevDetect:
		if ev.epoch != e.epochs[ev.dc] {
			return nil // truth moved on; the observation is stale
		}
		e.dcs[ev.dc].healthy = false
		e.gateStats.Detections++
		e.gateStats.DetectionLagTicks += ev.tick - ev.failTick
		e.pr.detectLag.Observe(float64(ev.tick - ev.failTick))
	case gevTrust:
		if ev.epoch != e.epochs[ev.dc] {
			return nil
		}
		e.dcs[ev.dc].healthy = true
		return e.drainGateBuffer(ev.tick)
	case gevSalvage:
		for _, t := range ev.tasks {
			if err := e.routeInjected(t, ev.tick, 0, true); err != nil {
				return err
			}
		}
	case gevRedispatch:
		if ev.task.Expired(ev.tick) || (e.fo.MaxRetries > 0 && ev.attempt > e.fo.MaxRetries) {
			e.exitAtGate(ev.task, ev.tick, &e.gateStats.LostUndetected)
			e.lostByDC[ev.dc]++
			return nil
		}
		e.gateStats.Retries++
		return e.routeInjected(ev.task, ev.tick, ev.attempt, true)
	}
	return nil
}

// routeArrival decides a fresh arrival's fate at its arrival tick and
// reports where it went: (dc, true) means the caller must admit it into
// that datacenter's simulator (drivers differ in how — direct Admit or
// worker channel); (_, false) means the gate
// already consumed it (buffered, dropped, or bounced into retry limbo).
// It also counts the arrival, times the dispatch span, and ticks the
// engine's telemetry shard — engine-owned state only, so the wide-window
// driver may call it while workers are mid-window.
func (e *Engine) routeArrival(t *task.Task) (int, bool, error) {
	t0 := e.phases.Start()
	e.arrivals++
	d, admit, err := e.gateArrival(t)
	if admit {
		e.admitted++
	}
	e.phases.Observe(telemetry.PhaseDispatch, t0)
	e.sampler.Tick(e.now)
	return d, admit, err
}

// gateArrival is routeArrival's routing decision proper.
func (e *Engine) gateArrival(t *task.Task) (int, bool, error) {
	e.now = t.Arrival
	if !e.anyHealthy() {
		e.record(Dispatch{Tick: t.Arrival, TaskID: t.ID, DC: -1})
		if e.fo.Buffered() {
			e.bufferTask(t, t.Arrival)
		} else {
			e.exitAtGate(t, t.Arrival, &e.gateStats.Dropped)
		}
		return -1, false, nil
	}
	d, err := e.pick(t.Arrival, t)
	if err != nil {
		return 0, false, err
	}
	e.record(Dispatch{Tick: t.Arrival, TaskID: t.ID, DC: d})
	if !e.dcs[d].alive {
		e.bounceDispatch(t, d, 1, t.Arrival)
		return d, false, nil
	}
	return d, true, nil
}

// routeInjected routes a task that re-enters the dispatcher after its
// arrival tick — a salvaged drain, a bounced retry, or a buffer drain —
// injecting it into the picked datacenter's batch queue. With no
// believed-healthy datacenter it falls back to the gate buffer, or exits
// at the gate.
func (e *Engine) routeInjected(t *task.Task, now int64, attempt int, failover bool) error {
	if !e.anyHealthy() {
		e.record(Dispatch{Tick: now, TaskID: t.ID, DC: -1, Failover: failover, Attempt: attempt})
		if e.fo.Buffered() {
			e.bufferTask(t, now)
		} else {
			e.exitAtGate(t, now, &e.gateStats.Dropped)
		}
		return nil
	}
	d, err := e.pick(now, t)
	if err != nil {
		return err
	}
	e.record(Dispatch{Tick: now, TaskID: t.ID, DC: d, Failover: failover, Attempt: attempt})
	if !e.dcs[d].alive {
		e.bounceDispatch(t, d, attempt+1, now)
		return nil
	}
	e.injected++
	e.dcs[d].sim.InjectRequeued(t, now)
	return nil
}

// routeDrained re-dispatches one task drained by a *detected* dc-fail, at
// the fail tick — the oracle-detection failover path. With no survivor it
// buffers when the gate buffer is on, else exits the task through the dead
// datacenter's simulator exactly as the engine always has.
func (e *Engine) routeDrained(from *DC, t *task.Task, now int64) error {
	if !e.anyHealthy() {
		e.record(Dispatch{Tick: now, TaskID: t.ID, DC: -1, Failover: true})
		if e.fo.Buffered() {
			e.bufferTask(t, now)
		} else {
			from.sim.DropInjected(t, now)
		}
		return nil
	}
	to, err := e.pick(now, t)
	if err != nil {
		return err
	}
	e.record(Dispatch{Tick: now, TaskID: t.ID, DC: to, Failover: true})
	if !e.dcs[to].alive {
		e.bounceDispatch(t, to, 1, now)
		return nil
	}
	e.injected++
	e.dcs[to].sim.InjectRequeued(t, now)
	return nil
}

// bounceDispatch puts a task whose dispatch landed on a
// down-but-undetected datacenter into retry limbo: it re-enters the
// dispatcher after the detection delay plus the attempt's backoff.
// attempt counts failed dispatches so far, this one included.
func (e *Engine) bounceDispatch(t *task.Task, dc, attempt int, now int64) {
	e.gateStats.Bounced++
	delay := e.fo.EffectiveBounceAfter() + e.fo.Backoff(attempt)
	e.pushGate(gateEvent{tick: now + delay, kind: gevRedispatch, dc: dc, task: t, attempt: attempt})
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
		if err := e.routeInjected(t, now, 0, false); err != nil {
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

// bumpEpoch invalidates the in-flight belief observations of datacenter
// dc; called at every applied truth transition.
func (e *Engine) bumpEpoch(dc int) { e.epochs[dc]++ }
