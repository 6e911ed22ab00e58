package simulator

import "taskprune/internal/telemetry"

// simProbes is the simulator's probe catalog. Its counters are read
// functions over the simulator's own tallies (registered in newSimProbes),
// so they hold no state here; the gauges are refreshed lazily by
// prepareSample, and the batch-size histogram is the one handle an event
// path touches. Every handle is nil (an inlined no-op) when telemetry is
// disabled, so the hot path pays nothing between sample boundaries.
type simProbes struct {
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

// newSimProbes registers the simulator's metrics on r. Each counter reads
// the tally the simulator keeps anyway — exits from the streaming
// collector, the rest from the fields behind the accessors of the same
// name — so a sampled row, a snapshot and TrialStats can never disagree.
func (s *Simulator) newSimProbes(r *telemetry.Registry) simProbes {
	r.Counter("arrivals_total", "tasks admitted into the batch queue", func() int64 { return int64(s.arrivals) })
	r.Counter("completed_total", "tasks completed on time", func() int64 { return int64(s.collector.Counts().Completed) })
	r.Counter("approx_total", "tasks exiting as approximate completions", func() int64 { return int64(s.collector.Counts().Approx) })
	r.Counter("missed_total", "tasks finishing after their deadlines", func() int64 { return int64(s.collector.Counts().Missed) })
	r.Counter("dropped_total", "tasks dropped (deadline, pruner, failures)", func() int64 { return int64(s.collector.Counts().Dropped) })
	r.Counter("mapping_events_total", "mapping events fired", func() int64 { return int64(s.mappingEvents) })
	r.Counter("pruner_drops_total", "tasks dropped by the pruning mechanism", func() int64 { return int64(s.droppedByPruner) })
	r.Counter("evicted_total", "executing tasks killed at their deadlines", func() int64 { return int64(s.evicted) })
	r.Counter("requeued_total", "tasks requeued by machine/DC failures", func() int64 { return int64(s.requeued) })
	r.Counter("restored_total", "failure requeues resumed from a checkpoint", func() int64 { return int64(s.restored) })
	r.Counter("checkpoints_total", "checkpoint writes", func() int64 { return int64(s.checkpoints) })
	r.Counter("eval_cache_hits_total", "phase-one evaluations served from the eval cache", s.evalCache.Hits)
	r.Counter("eval_cache_misses_total", "phase-one evaluations recomputed on cache miss", s.evalCache.Misses)
	return simProbes{
		eventDepth:  r.Gauge("event_queue_depth", "pending internal events (completions + fleet events)"),
		batchDepth:  r.Gauge("batch_queue_depth", "tasks waiting in the batch queue"),
		queuedLoad:  r.Gauge("machine_queued_load", "tasks held by machine queues, executing included"),
		machinesUp:  r.Gauge("machines_up", "alive machines in this fleet"),
		arenaHW:     r.Gauge("arena_blocks_highwater", "peak 512KiB arena blocks held by one mapping event"),
		robustness:  r.Gauge("robustness_pct", "100 * on-time completions / exits so far"),
		arrivalRate: r.Gauge("arrival_rate", "arrivals per simulated tick over the last sample interval"),
		batchSize:   r.Histogram("mapping_batch_size", "batch-queue depth at each mapping event", batchSizeBounds),
	}
}

// prepareSample refreshes the gauges just before the sampler records a
// row. Everything read here is a pure function of the simulator's
// deterministic state at the sample boundary, so sampled rows replay
// byte-for-byte with the decision stream.
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
	exits := s.collector.Counts()
	rob := 0.0
	if exits.Total > 0 {
		rob = 100 * float64(exits.Completed) / float64(exits.Total)
	}
	p.robustness.Set(rob)
	p.arrivalRate.Set(float64(s.arrivals-s.lastArrivals) / float64(s.sampler.Every()))
	s.lastArrivals = s.arrivals
}

// Telemetry returns the simulator's probe registry (nil when disabled).
func (s *Simulator) Telemetry() *telemetry.Registry { return s.tel }

// TelemetrySampler returns the time-series sampler (nil when disabled).
func (s *Simulator) TelemetrySampler() *telemetry.Sampler { return s.sampler }
