// Parallel per-DC stepping: the wide-window driver behind Config.Parallel.
// The engine's event order — arrivals first, then the engine queue
// (dc-fail/dc-recover truth events and gate events), then per-DC events by
// index — makes every engine event a synchronization point and everything
// between two of them embarrassingly parallel once routing cannot depend
// on how far the datacenters have stepped. Per-DC internal events touch
// only their datacenter's private simulator core, the shared cluster
// collector is interleaving-invariant (metrics.Stream.Share), and the task
// pool is a sync.Pool.
//
// Round-robin routing (the only policy New accepts with Parallel) reads
// nothing but its own cursor and the believed-healthy set, both owned by
// the engine goroutine. So the engine routes the whole window up to the
// next engine event ahead of time — the window bound is one peek at the
// engine queue — streaming arrivals into bounded per-DC channels while the
// workers admit and step concurrently; barriers remain only at engine
// events and at end of stream. The bound is peeked again after every
// dispatch: routing into a down-but-undetected datacenter plants a retry
// event that may now precede the next arrival. Stateful policies
// (least-queued, pet-aware) would need a barrier per arrival, and
// measurement showed that never beat the sequential path by enough to
// keep, so they run sequentially.
//
// Engine events (dc-fail, dc-recover, detection, trust, salvage, retry —
// failover.go) fire on the engine goroutine with every worker quiescent at
// that tick, so their simulator drains and injections land in exactly the
// sequential call order.
//
// The driver replays byte-identically against the sequential path
// (traces, dispatch log, statistics) — TestClusterParallelStepDeterminism
// pins this across GOMAXPROCS settings under the race detector.
package cluster

import (
	"fmt"
	"math"
	"sync"

	"taskprune/internal/task"
	"taskprune/internal/workload"
)

// wideWindowBuffer bounds each datacenter's in-flight arrival channel in
// the wide-window driver; a full channel backpressures the dispatcher.
const wideWindowBuffer = 128

// dcWork is one unit handed to a datacenter worker: admit one task at its
// arrival tick (internal events strictly before that tick are processed
// first), or, with admit nil, a barrier — burn internal events strictly
// below horizon and reply on done. Events at exactly horizon stay
// pending: the engine-level event there wins ties.
type dcWork struct {
	admit   *task.Task
	horizon int64
}

// dcWorker owns one datacenter's goroutine for the lifetime of a parallel
// run. err holds the first Admit failure; the worker keeps draining its
// channel afterwards (acks included) so the engine never blocks, and the
// engine reads err only after receiving an ack — the channel receive is
// the happens-before edge.
type dcWorker struct {
	dc   *DC
	work chan dcWork
	done chan struct{}
	err  error
}

func (w *dcWorker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for m := range w.work {
		switch {
		case m.admit == nil:
			if w.err == nil {
				w.dc.sim.StepUntil(m.horizon)
			}
			w.done <- struct{}{}
		case w.err == nil:
			w.dc.sim.StepUntil(m.admit.Arrival)
			w.err = w.dc.sim.Admit(m.admit)
		}
	}
}

// parallelRunner drives one parallel trial: the engine plus its worker
// set.
type parallelRunner struct {
	e       *Engine
	workers []*dcWorker
}

// runParallel steps the datacenters concurrently. It returns only after
// every worker goroutine has exited, so the caller may touch the
// simulators (Finalize) freely afterwards.
func (e *Engine) runParallel(src workload.Source) error {
	e.collector.Share()
	r := &parallelRunner{e: e}
	var wg sync.WaitGroup
	for _, d := range e.dcs {
		w := &dcWorker{dc: d, work: make(chan dcWork, wideWindowBuffer), done: make(chan struct{}, 1)}
		r.workers = append(r.workers, w)
		wg.Add(1)
		go w.loop(&wg)
	}
	defer func() {
		for _, w := range r.workers {
			close(w.work)
		}
		wg.Wait()
	}()
	return r.runWide(src)
}

// pull fetches and order-checks the stream's next task (per-task
// validation happens in the receiving datacenter's Admit).
func (e *Engine) pull(src workload.Source) (*task.Task, bool, error) {
	t, ok := src.Next()
	if !ok {
		return nil, false, nil
	}
	if t.Arrival < e.now {
		return nil, false, fmt.Errorf("cluster: source emitted task %d arriving at %d after the clock reached %d", t.ID, t.Arrival, e.now)
	}
	return t, true, nil
}

// runWide routes every arrival up to the next engine event in one go —
// round-robin's picks cannot depend on how far the workers have gotten —
// and each datacenter pipelines its admits and internal events
// concurrently with the dispatch loop. Gate drops, buffering, and bounce
// scheduling fold into engine-owned state from here while workers observe
// exits from their side; Share makes the collector safe and
// order-invariant. The window bound is peeked again after every dispatch
// because a dispatch into a down-but-undetected datacenter plants a retry
// event, possibly before the next arrival.
func (r *parallelRunner) runWide(src workload.Source) error {
	e := r.e
	next, hasNext, err := e.pull(src)
	if err != nil {
		return err
	}
	for {
		tick, pending := e.nextEngineTick()
		if hasNext && (!pending || next.Arrival <= tick) {
			d, rerr := e.routeArrival(next)
			if rerr != nil {
				return rerr
			}
			if d >= 0 {
				r.workers[d].work <- dcWork{admit: next}
			}
			if next, hasNext, err = e.pull(src); err != nil {
				return err
			}
			continue
		}
		if !pending {
			// The MaxInt64 barrier drains every datacenter.
			return r.barrierAll(math.MaxInt64)
		}
		if err := r.barrierAll(tick); err != nil {
			return err
		}
		e.now = tick
		if err := e.stepEngineEvent(); err != nil {
			return err
		}
	}
}

// barrierAll quiesces every datacenter at horizon: queued admits land,
// internal events below horizon run, and the engine regains exclusive
// access to all simulator state (failover draining, finalization).
func (r *parallelRunner) barrierAll(horizon int64) error {
	for _, w := range r.workers {
		w.work <- dcWork{horizon: horizon}
	}
	var firstErr error
	for _, w := range r.workers {
		<-w.done
		if err := w.err; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
