package simulator

import "taskprune/internal/telemetry"

// simProbes is the simulator's probe catalog: one handle per metric, all
// nil (inlined no-ops) when telemetry is disabled. Counters on event paths
// are incremented in place; everything else is refreshed lazily by
// prepareSample, so the hot path pays nothing between sample boundaries.
type simProbes struct {
	// Event-path counters.
	arrivals      *telemetry.Counter
	completed     *telemetry.Counter
	approx        *telemetry.Counter
	missed        *telemetry.Counter
	dropped       *telemetry.Counter
	mappingEvents *telemetry.Counter

	// Sample-time mirrors of pre-existing engine counters.
	prunerDrops *telemetry.Counter
	evicted     *telemetry.Counter
	requeued    *telemetry.Counter
	restored    *telemetry.Counter
	checkpoints *telemetry.Counter
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter

	// Sample-time gauges.
	eventDepth  *telemetry.Gauge
	batchDepth  *telemetry.Gauge
	queuedLoad  *telemetry.Gauge
	machinesUp  *telemetry.Gauge
	arenaHW     *telemetry.Gauge
	robustness  *telemetry.Gauge
	arrivalRate *telemetry.Gauge

	// Distribution of the batch-queue size seen by each mapping event.
	batchSize *telemetry.Histogram
}

// batchSizeBounds buckets the per-mapping-event batch depth.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}

func newSimProbes(r *telemetry.Registry) simProbes {
	return simProbes{
		arrivals:      r.Counter("arrivals_total", "tasks admitted into the batch queue"),
		completed:     r.Counter("completed_total", "tasks completed on time"),
		approx:        r.Counter("approx_total", "tasks exiting as approximate completions"),
		missed:        r.Counter("missed_total", "tasks finishing after their deadlines"),
		dropped:       r.Counter("dropped_total", "tasks dropped (deadline, pruner, failures)"),
		mappingEvents: r.Counter("mapping_events_total", "mapping events fired"),
		prunerDrops:   r.Counter("pruner_drops_total", "tasks dropped by the pruning mechanism"),
		evicted:       r.Counter("evicted_total", "executing tasks killed at their deadlines"),
		requeued:      r.Counter("requeued_total", "tasks requeued by machine/DC failures"),
		restored:      r.Counter("restored_total", "failure requeues resumed from a checkpoint"),
		checkpoints:   r.Counter("checkpoints_total", "checkpoint writes"),
		cacheHits:     r.Counter("eval_cache_hits_total", "phase-one evaluations served from the eval cache"),
		cacheMisses:   r.Counter("eval_cache_misses_total", "phase-one evaluations recomputed on cache miss"),
		eventDepth:    r.Gauge("event_queue_depth", "pending internal events (completions + fleet events)"),
		batchDepth:    r.Gauge("batch_queue_depth", "tasks waiting in the batch queue"),
		queuedLoad:    r.Gauge("machine_queued_load", "tasks held by machine queues, executing included"),
		machinesUp:    r.Gauge("machines_up", "alive machines in this fleet"),
		arenaHW:       r.Gauge("arena_blocks_highwater", "peak 512KiB arena blocks held by one mapping event"),
		robustness:    r.Gauge("robustness_pct", "100 * on-time completions / exits so far"),
		arrivalRate:   r.Gauge("arrival_rate", "arrivals per simulated tick over the last sample interval"),
		batchSize:     r.Histogram("mapping_batch_size", "batch-queue depth at each mapping event", batchSizeBounds),
	}
}

// prepareSample refreshes the lazily maintained probes just before the
// sampler records a row. Everything read here is a pure function of the
// simulator's deterministic state at the sample boundary, so sampled rows
// replay byte-for-byte with the decision stream.
func (s *Simulator) prepareSample() {
	p := &s.pr
	p.eventDepth.Set(float64(s.events.Len()))
	p.batchDepth.Set(float64(len(s.batch)))
	queued, up := 0, 0
	for _, m := range s.machines {
		queued += m.QueueLen()
		if m.Alive() {
			up++
		}
	}
	p.queuedLoad.Set(float64(queued))
	p.machinesUp.Set(float64(up))
	p.arenaHW.Set(float64(s.arena.HighWater()))
	p.prunerDrops.Sync(int64(s.droppedByPruner))
	p.evicted.Sync(int64(s.evicted))
	p.requeued.Sync(int64(s.requeued))
	p.restored.Sync(int64(s.restored))
	p.checkpoints.Sync(int64(s.checkpoints))
	p.cacheHits.Sync(s.evalCache.Hits())
	p.cacheMisses.Sync(s.evalCache.Misses())
	done := p.completed.Value()
	exits := done + p.approx.Value() + p.missed.Value() + p.dropped.Value()
	rob := 0.0
	if exits > 0 {
		rob = 100 * float64(done) / float64(exits)
	}
	p.robustness.Set(rob)
	arr := p.arrivals.Value()
	p.arrivalRate.Set(float64(arr-s.lastArrivals) / float64(s.sampler.Every()))
	s.lastArrivals = arr
}

// Telemetry returns the simulator's probe registry (nil when disabled).
func (s *Simulator) Telemetry() *telemetry.Registry { return s.tel }

// TelemetrySampler returns the time-series sampler (nil when disabled).
func (s *Simulator) TelemetrySampler() *telemetry.Sampler { return s.sampler }
