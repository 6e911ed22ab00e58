package cluster

import (
	"fmt"

	"taskprune/internal/telemetry"
)

// engineProbes is the cluster engine's telemetry shard: dispatch outcomes,
// gate-buffer behaviour, and believed-vs-true per-DC health. Its counters
// are read functions over the engine's own tallies (registered in
// newEngineProbes); the gauges below are refreshed by prepareSample. The
// shard is owned by the engine goroutine and reads ONLY engine-owned
// state — never the per-DC simulators, which may be stepping on worker
// goroutines when the wide-window driver samples mid-window. Per-DC queue
// depths and fleet state live in each datacenter's own simulator shard
// instead.
type engineProbes struct {
	// Sample-time gauges over metrics.GateStats.
	gateMaxDepth  *telemetry.Gauge
	detectLagMean *telemetry.Gauge

	// Sample-time gauges over engine-owned state.
	gateDepth    *telemetry.Gauge
	dcsInService *telemetry.Gauge
	dcsHealthy   *telemetry.Gauge
	arrivalRate  *telemetry.Gauge
	dcInService  []*telemetry.Gauge
	dcHealthy    []*telemetry.Gauge

	// Distribution of detection lags (ticks from true failure to the
	// monitor marking the datacenter down), observed at each detection.
	detectLag *telemetry.Histogram
}

// detectLagBounds buckets detection lag in ticks.
var detectLagBounds = []float64{10, 25, 50, 100, 250, 500, 1000}

// newEngineProbes registers the engine's metrics on r. The counters read
// the gate tallies and e.gateStats — the same store Gate(), Submitted()
// and InFlight() report — so they never lag behind them.
func (e *Engine) newEngineProbes(r *telemetry.Registry) engineProbes {
	g := &e.gateStats
	r.Counter("gate_arrivals_total", "fresh arrivals reaching the dispatcher gate", func() int64 { return int64(e.arrivals) })
	r.Counter("gate_admitted_total", "arrivals routed straight into a datacenter", func() int64 { return int64(e.admitted) })
	r.Counter("gate_injected_total", "failover/buffer/retry tasks injected into a datacenter", func() int64 { return int64(e.injected) })
	r.Counter("gate_dropped_total", "tasks dropped at the gate (no believed-healthy DC, no buffer)", func() int64 { return int64(g.Dropped) })
	r.Counter("gate_shed_total", "tasks shed from the bounded gate buffer", func() int64 { return int64(g.Shed) })
	r.Counter("gate_lost_undetected_total", "tasks lost bouncing off undetected outages", func() int64 { return int64(g.LostUndetected) })
	r.Counter("gate_retries_total", "re-dispatch attempts after bounced dispatches", func() int64 { return int64(g.Retries) })
	r.Counter("gate_bounced_total", "dispatches that landed on a down-but-undetected DC", func() int64 { return int64(g.Bounced) })
	r.Counter("gate_buffered_total", "tasks that entered the gate buffer", func() int64 { return int64(g.Buffered) })
	r.Counter("gate_detections_total", "outages the health monitor flagged", func() int64 { return int64(g.Detections) })
	r.Counter("gate_detection_lag_ticks_total", "summed detection lag over all detections", func() int64 { return g.DetectionLagTicks })
	p := engineProbes{
		gateMaxDepth:  r.Gauge("gate_max_queue_depth", "deepest the gate buffer ever got"),
		detectLagMean: r.Gauge("gate_detection_lag_mean", "mean detection lag in ticks"),
		gateDepth:     r.Gauge("gate_queue_depth", "tasks currently waiting in the gate buffer"),
		dcsInService:  r.Gauge("dcs_in_service", "datacenters actually up (ground truth)"),
		dcsHealthy:    r.Gauge("dcs_healthy", "datacenters the dispatcher believes are up"),
		arrivalRate:   r.Gauge("gate_arrival_rate", "gate arrivals per simulated tick over the last sample interval"),
		detectLag:     r.Histogram("gate_detection_lag", "detection lag per flagged outage, in ticks", detectLagBounds),
	}
	if r != nil {
		for d := 0; d < e.cfg.DCs; d++ {
			p.dcInService = append(p.dcInService, r.Gauge(dcMetric("dc%d_in_service", d), "ground-truth up/down flag for this datacenter"))
			p.dcHealthy = append(p.dcHealthy, r.Gauge(dcMetric("dc%d_healthy", d), "dispatcher's believed up/down flag for this datacenter"))
		}
	}
	return p
}

func dcMetric(format string, d int) string {
	return fmt.Sprintf(format, d)
}

// prepareSample refreshes the engine shard's gauges just before a row is
// recorded. Reads engine-owned state only (gate buffer, health flags,
// GateStats); deterministic given the engine's event sequence, which is
// identical across the sequential path and the wide-window driver.
func (e *Engine) prepareSample() {
	p := &e.pr
	p.gateDepth.Set(float64(len(e.buf)))
	inService, healthy := 0, 0
	for i, d := range e.dcs {
		if d.alive {
			inService++
		}
		if d.healthy {
			healthy++
		}
		if p.dcInService != nil {
			p.dcInService[i].Set(boolGauge(d.alive))
			p.dcHealthy[i].Set(boolGauge(d.healthy))
		}
	}
	p.dcsInService.Set(float64(inService))
	p.dcsHealthy.Set(float64(healthy))
	g := e.gateStats
	p.gateMaxDepth.Set(float64(g.MaxQueueDepth))
	lagMean := 0.0
	if g.Detections > 0 {
		lagMean = float64(g.DetectionLagTicks) / float64(g.Detections)
	}
	p.detectLagMean.Set(lagMean)
	p.arrivalRate.Set(float64(e.arrivals-e.lastArrivals) / float64(e.sampler.Every()))
	e.lastArrivals = e.arrivals
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Telemetry returns the engine's own probe registry (nil when disabled).
// Per-DC shards are reachable via DCList()[i].Sim().Telemetry().
func (e *Engine) Telemetry() *telemetry.Registry { return e.tel }

// TelemetrySampler returns the engine shard's time-series sampler (nil
// when disabled).
func (e *Engine) TelemetrySampler() *telemetry.Sampler { return e.sampler }

// TelemetrySamplers returns every shard's sampler with its export scope —
// the engine ("cluster") followed by each datacenter ("dc0".."dcN") — for
// CSV/JSON time-series export. Call only after RunSource returns (the
// barrier at which worker shards become readable); empty when disabled.
func (e *Engine) TelemetrySamplers() []telemetry.ScopedSampler {
	if e.tel == nil {
		return nil
	}
	out := []telemetry.ScopedSampler{{Scope: "cluster", S: e.sampler}}
	for _, d := range e.dcs {
		out = append(out, telemetry.ScopedSampler{Scope: dcMetric("dc%d", d.index), S: d.sim.TelemetrySampler()})
	}
	return out
}

// TelemetryShards snapshots every shard's registry with its export scope,
// for Prometheus/JSON snapshot export. Same barrier contract as
// TelemetrySamplers.
func (e *Engine) TelemetryShards() []telemetry.Shard {
	if e.tel == nil {
		return nil
	}
	out := []telemetry.Shard{{Scope: "cluster", Snap: e.tel.Snapshot()}}
	for _, d := range e.dcs {
		out = append(out, telemetry.Shard{Scope: dcMetric("dc%d", d.index), Snap: d.sim.Telemetry().Snapshot()})
	}
	return out
}

// Phases returns the merged phase-timer breakdown — the engine's dispatch
// spans plus every datacenter's admit/step/eval/convolve spans. Nil when
// Config.Phases is off; call only after RunSource returns.
func (e *Engine) Phases() *telemetry.PhaseTimer {
	if e.phases == nil {
		return nil
	}
	out := telemetry.NewPhaseTimer()
	out.Merge(e.phases)
	for _, pt := range e.dcPhases {
		out.Merge(pt)
	}
	return out
}
