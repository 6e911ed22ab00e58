package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"taskprune/bench/internal/result"
	"taskprune/internal/cluster"
	"taskprune/internal/experiments"
	"taskprune/internal/heuristics"
	"taskprune/internal/metrics"
	"taskprune/internal/simulator"
	"taskprune/internal/stats"
	"taskprune/internal/task"
	"taskprune/internal/telemetry"
	"taskprune/internal/workload"
)

// windows is how many equal arrival windows a batch run is split into. The
// first is warm-up and is dropped; the run reports the median of the rest.
const windows = 12

// samples is how many calibrations each window interleaves with the work.
const samples = 16

// countingSource wraps the workload stream: it counts arrivals and takes
// one clock reading per pull. The gap between consecutive pulls is the host
// time one arrival costs (admitting it and handling every event before the
// next); windows of gaps give the run's arrival rate and latencies. Every
// `every` gaps the source calibrates (see calibrate), and the gaps since the
// previous calibration are scaled by the host's speed over them.
type countingSource struct {
	src   *workload.Stream
	tr    *tracer
	every int // gaps between calibrations; a window is samples×every gaps
	n     int // arrivals pulled
	// first is when the first arrival was pulled: the end of set-up.
	first, last time.Time
	setupHost   float64       // hostFactor when set-up ended
	calibrating time.Duration // time spent calibrating, in no gap or layer

	cal             time.Duration   // the latest calibration
	pending         []time.Duration // gaps since it
	gapsMS          []float64       // the current window's calibrated gaps
	winMS           float64         // their sum
	rates, p50, p95 []float64       // per closed window
}

func newCountingSource(src *workload.Stream, tasks int, tr *tracer) *countingSource {
	every := max((tasks-1)/(windows*samples), 1)
	return &countingSource{src: src, tr: tr, every: every, gapsMS: make([]float64, 0, samples*every)}
}

// Next implements workload.Source.
func (s *countingSource) Next() (*task.Task, bool) {
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	t, ok := s.src.Next()
	now := time.Now()
	if s.tr != nil {
		s.tr.recording = s.n >= (windows-1)*samples*s.every
		s.tr.observe(&s.tr.next, "Next", t0, now)
	}
	if !ok {
		return t, ok
	}
	s.n++
	if s.n == 1 {
		s.first = now
		s.setupHost = hostFactor()
		s.cal = calibrate()
	} else if s.pending = append(s.pending, now.Sub(s.last)); len(s.pending) == s.every {
		s.calibrateGaps()
	} else {
		s.last = now
		return t, ok
	}
	s.last = time.Now()
	s.calibrating += s.last.Sub(now)
	return t, ok
}

// setupS is the calibrated set-up time: from mainStart to the first pull.
func (s *countingSource) setupS(mainStart time.Time) float64 {
	return s.first.Sub(mainStart).Seconds() / s.setupHost
}

// Recycle passes retired tasks back to the stream's pool.
func (s *countingSource) Recycle(t *task.Task) { s.src.Recycle(t) }

// calibrateGaps calibrates, scales the pending gaps by the host's speed
// over them (the mean of the calibrations before and after, against
// calibrationNominal), and closes the window once it is full.
func (s *countingSource) calibrateGaps() {
	c := calibrate()
	f := float64(s.cal+c) / 2 / float64(calibrationNominal)
	s.cal = c
	for _, g := range s.pending {
		ms := float64(g) / 1e6 / f
		s.gapsMS = append(s.gapsMS, ms)
		s.winMS += ms
	}
	s.pending = s.pending[:0]
	if len(s.gapsMS) < samples*s.every {
		return
	}
	sort.Float64s(s.gapsMS)
	s.rates = append(s.rates, float64(len(s.gapsMS))/s.winMS*1e3)
	s.p50 = append(s.p50, result.Quantile(s.gapsMS, 0.50))
	s.p95 = append(s.p95, result.Quantile(s.gapsMS, 0.95))
	s.gapsMS, s.winMS = s.gapsMS[:0], 0
}

// steady drops the warm-up window.
func steady(xs []float64) []float64 {
	if len(xs) > 1 {
		return xs[1:]
	}
	return xs
}

// tracer times every call the engine makes through the wrapped surfaces.
// Calls are aggregated over the whole run; spans are kept only while
// recording (the last window).
type tracer struct {
	recording bool
	spans     []span

	next, mapping, pick layer
	mapUS               []float64 // every Map call's duration
	batchSum            int64     // tasks offered to Map, summed over calls
	useful              int64     // Map calls that assigned or culled a task
}

type layer struct{ calls, ns int64 }

type span struct {
	name       string
	start, end time.Time
}

// writeSpans writes spans as CSV. Row 0 is the enclosing span, which is
// every other row's parent; times are nanoseconds from its start.
func writeSpans(path, root string, start, end time.Time, spans []span) error {
	var b strings.Builder
	b.WriteString("id,name,start_ns,end_ns,parent\n")
	fmt.Fprintf(&b, "0,%s,0,%d,-1\n", root, end.Sub(start))
	for i, s := range spans {
		fmt.Fprintf(&b, "%d,%s,%d,%d,0\n", i+1, s.name, s.start.Sub(start), s.end.Sub(start))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func (l layer) perCall() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.ns) / float64(l.calls)
}

func (tr *tracer) observe(l *layer, name string, t0, t1 time.Time) {
	l.calls++
	l.ns += int64(t1.Sub(t0))
	if tr.recording {
		tr.spans = append(tr.spans, span{name, t0, t1})
	}
}

// tracedHeuristic times Map and counts what each call achieved.
type tracedHeuristic struct {
	heuristics.Heuristic
	tr *tracer
}

func (h *tracedHeuristic) Map(ctx *heuristics.Context, batch []*task.Task) heuristics.Result {
	t0 := time.Now()
	res := h.Heuristic.Map(ctx, batch)
	t1 := time.Now()
	h.tr.observe(&h.tr.mapping, "Map", t0, t1)
	h.tr.mapUS = append(h.tr.mapUS, float64(t1.Sub(t0))/1e3)
	h.tr.batchSum += int64(len(batch))
	if len(res.Assigned)+len(res.Culled) > 0 {
		h.tr.useful++
	}
	return res
}

// tracedPolicy times the dispatcher's Pick.
type tracedPolicy struct {
	cluster.Policy
	tr *tracer
}

func (p *tracedPolicy) Pick(now int64, t *task.Task, dcs []*cluster.DC) int {
	t0 := time.Now()
	d := p.Policy.Pick(now, t, dcs)
	p.tr.observe(&p.tr.pick, "Pick", t0, time.Now())
	return d
}

// runBatch runs one batch workload. Set-up ends when the first arrival is
// pulled; with setupOnly the run stops there.
func runBatch(p Params, traced bool, mainStart time.Time, setupOnly bool, spansPath string) (childResult, error) {
	matrix := experiments.SPECPET()
	simCfg, err := simulator.ConfigFor(p.Heuristic, matrix)
	if err != nil {
		return childResult{}, err
	}
	var tr *tracer
	if traced {
		tr = &tracer{}
		simCfg.Heuristic = &tracedHeuristic{Heuristic: simCfg.Heuristic, tr: tr}
	}
	wcfg := workload.Config{NumTasks: p.Tasks, Rate: workload.RateForLevel(p.Level), VarFrac: p.VarFrac, Beta: p.Beta}
	stream, err := workload.NewStream(wcfg, matrix, stats.NewRNG(p.Seed))
	if err != nil {
		return childResult{}, err
	}
	src := newCountingSource(stream, p.Tasks, tr)

	var sim *simulator.Simulator
	var eng *cluster.Engine
	if p.DCs == 0 {
		if traced {
			simCfg.PhaseTimer = telemetry.NewPhaseTimer()
		}
		sim, err = simulator.New(simCfg)
	} else {
		var policy cluster.Policy
		if policy, err = cluster.NewPolicy(p.Route); err != nil {
			return childResult{}, err
		}
		if traced {
			policy = &tracedPolicy{Policy: policy, tr: tr}
		}
		eng, err = cluster.New(cluster.Config{DCs: p.DCs, Policy: policy, Sim: simCfg, Phases: traced})
	}
	if err != nil {
		return childResult{}, err
	}
	if setupOnly {
		src.Next()
		return childResult{SetupS: src.setupS(mainStart)}, nil
	}

	var res childResult
	start := time.Now()
	var st metrics.TrialStats
	var phases *telemetry.PhaseTimer
	if sim != nil {
		if st, err = sim.RunSource(src); err != nil {
			return childResult{}, err
		}
		phases = simCfg.PhaseTimer
		res.Stats = fmt.Sprintf("%+v", st)
	} else {
		var perDC []metrics.TrialStats
		if st, perDC, err = eng.RunSource(src); err != nil {
			return childResult{}, err
		}
		phases = eng.Phases()
		res.Stats = fmt.Sprintf("%+v %+v", st, perDC)
		sum := eng.Gate().EngineExits()
		for _, d := range perDC {
			sum += d.Total
		}
		if sum != st.Total {
			res.FailedChecks = append(res.FailedChecks, fmt.Sprintf("per-DC totals plus gate exits are %d, cluster total is %d", sum, st.Total))
		}
	}
	end := time.Now()

	if st.Total != src.n {
		res.FailedChecks = append(res.FailedChecks, fmt.Sprintf("trial total %d, arrivals pulled %d", st.Total, src.n))
	}
	res.SetupS = src.setupS(mainStart)
	res.Attempted = src.n
	_, rate, _ := result.Quartiles(steady(src.rates))
	_, p50, _ := result.Quartiles(steady(src.p50))
	_, p95, _ := result.Quartiles(steady(src.p95))
	res.Metrics = map[string]float64{
		"arrivals_per_s": rate,
		"latency_p50_ms": p50,
		"latency_p95_ms": p95,
		"robustness_pct": st.RobustnessPct,
	}
	if tr == nil {
		return res, nil
	}

	wall := float64(end.Sub(start) - src.calibrating)
	m := res.Metrics
	m["heuristics.map_calls"] = float64(tr.mapping.calls)
	m["heuristics.map_ns"] = tr.mapping.perCall()
	sort.Float64s(tr.mapUS)
	m["heuristics.map_p99_us"] = result.Quantile(tr.mapUS, 0.99)
	m["heuristics.map_share"] = 100 * float64(tr.mapping.ns) / wall
	if tr.mapping.calls > 0 {
		m["heuristics.batch_mean"] = float64(tr.batchSum) / float64(tr.mapping.calls)
		m["heuristics.map_useful_frac"] = float64(tr.useful) / float64(tr.mapping.calls)
	}
	m["cluster.pick_calls"] = float64(tr.pick.calls)
	m["cluster.pick_ns"] = tr.pick.perCall()
	m["cluster.pick_share"] = 100 * float64(tr.pick.ns) / wall
	m["workload.next_calls"] = float64(tr.next.calls)
	m["workload.next_ns"] = tr.next.perCall()
	m["simulator.self_share"] = 100 * (wall - float64(tr.next.ns+tr.mapping.ns+tr.pick.ns)) / wall
	for _, ph := range phases.Breakdown() {
		if ph.Phase == telemetry.PhaseConvolve {
			m["pruner.passes"] = float64(ph.Count)
			m["pruner.convolve_share"] = 100 * float64(ph.Total) / wall
		}
	}
	for k, v := range pmfBench(matrix) {
		m[k] = v
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, "RunSource", start, end, tr.spans); err != nil {
			return childResult{}, err
		}
	}
	return res, nil
}
