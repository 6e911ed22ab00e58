package cluster

import (
	"bytes"
	"runtime"
	"sort"
	"strings"
	"testing"

	"taskprune/internal/scenario"
	"taskprune/internal/simulator"
	"taskprune/internal/telemetry"
	"taskprune/internal/workload"
)

// telemetryTrial runs the fixed 3-DC detect-storm configuration with
// telemetry and phase timing enabled and returns the engine alongside the
// rendered multi-shard time-series CSV.
func telemetryTrial(t testing.TB, route string, parallel bool) (*Engine, []byte) {
	t.Helper()
	matrix := clusterPET(t)
	policy, err := NewPolicy(route)
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig(t, "PAM", matrix, 3, policy, detectStormScenario())
	cfg.RecordDispatch = true
	cfg.Parallel = parallel
	cfg.Telemetry = &telemetry.Options{SampleEvery: 50, RingCap: 256}
	cfg.Phases = true
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := clusterWorkload(t, matrix, 150, 42)
	if _, _, err := eng.RunSource(workload.FromTasks(tasks)); err != nil {
		t.Fatal(err)
	}

	var series bytes.Buffer
	if err := telemetry.WriteSamplersCSV(&series, eng.TelemetrySamplers()); err != nil {
		t.Fatal(err)
	}
	return eng, series.Bytes()
}

// TestGoldenClusterTelemetryDetect pins the sampler semantics: the full
// multi-shard time-series CSV of the 3-DC detection-storm trial is
// committed under testdata/ and must replay byte for byte. Regenerate
// with -update after an intentional probe change and review the diff.
func TestGoldenClusterTelemetryDetect(t *testing.T) {
	_, series := telemetryTrial(t, "pet-aware", false)
	checkGolden(t, "golden_telemetry_detect.csv", series)
}

// TestTelemetryDoesNotPerturbScheduling: the decision stream of the
// detect-storm trial with telemetry + phase timers enabled must be
// byte-identical to the committed golden produced with them disabled —
// the zero-cost contract seen from the scheduling side.
func TestTelemetryDoesNotPerturbScheduling(t *testing.T) {
	matrix := clusterPET(t)
	sc := detectStormScenario()
	_, wantDispatch, _, _ := clusterTrial(t, matrix, "PAM", "pet-aware", sc)

	policy, err := NewPolicy("pet-aware")
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig(t, "PAM", matrix, 3, policy, sc)
	cfg.RecordDispatch = true
	cfg.Telemetry = &telemetry.Options{SampleEvery: 50, RingCap: 256}
	cfg.Phases = true
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.RunSource(workload.FromTasks(clusterWorkload(t, matrix, 150, 42))); err != nil {
		t.Fatal(err)
	}
	got := eng.Dispatches()
	if len(got) != len(wantDispatch) {
		t.Fatalf("telemetry changed the dispatch count: %d vs %d", len(got), len(wantDispatch))
	}
	for i := range got {
		if got[i] != wantDispatch[i] {
			t.Fatalf("telemetry perturbed dispatch %d: %+v vs %+v", i, got[i], wantDispatch[i])
		}
	}
}

// TestClusterParallelTelemetryDeterminism extends the parallel byte-identity
// contract to the telemetry layer: every shard's time-series rows — engine
// gate probes and per-DC simulator probes — must be byte-identical between
// the sequential path and the wide-window driver (round-robin) at every
// GOMAXPROCS setting. Stateful routes are refused the parallel knob
// (parallelArm) and replay the sequential path. Runs under -race via make
// race-telemetry.
func TestClusterParallelTelemetryDeterminism(t *testing.T) {
	for _, route := range []string{"pet-aware", "least-queued", "round-robin"} {
		t.Run(route, func(t *testing.T) {
			par := parallelArm(t, route)
			_, want := telemetryTrial(t, route, false)
			for _, gmp := range []int{1, 4, 8} {
				prev := runtime.GOMAXPROCS(gmp)
				_, got := telemetryTrial(t, route, par)
				runtime.GOMAXPROCS(prev)
				if !bytes.Equal(got, want) {
					t.Fatalf("GOMAXPROCS=%d: parallel telemetry rows diverge from sequential (%d vs %d bytes)",
						gmp, len(got), len(want))
				}
			}
		})
	}
}

// TestTelemetryProbeSemantics checks the engine shard's final counters
// against the ground-truth GateStats and the detection-lag histogram
// against the detection count.
func TestTelemetryProbeSemantics(t *testing.T) {
	eng, series := telemetryTrial(t, "pet-aware", false)
	g := eng.Gate()
	if g.Detections == 0 {
		t.Fatalf("detect-storm scenario produced no detections")
	}
	snap := eng.Telemetry().Snapshot()
	vals := map[string]float64{}
	for _, s := range snap.Scalars {
		vals[s.Name] = s.Value
	}
	checks := map[string]float64{
		"gate_detections_total":          float64(g.Detections),
		"gate_detection_lag_ticks_total": float64(g.DetectionLagTicks),
		"gate_max_queue_depth":           float64(g.MaxQueueDepth),
		"gate_dropped_total":             float64(g.Dropped),
		"gate_shed_total":                float64(g.Shed),
		"gate_retries_total":             float64(g.Retries),
		"gate_bounced_total":             float64(g.Bounced),
		"gate_buffered_total":            float64(g.Buffered),
		"gate_lost_undetected_total":     float64(g.LostUndetected),
	}
	for name, want := range checks {
		if vals[name] != want {
			t.Errorf("%s = %v, want %v", name, vals[name], want)
		}
	}
	if wantMean := float64(g.DetectionLagTicks) / float64(g.Detections); vals["gate_detection_lag_mean"] != wantMean {
		t.Errorf("gate_detection_lag_mean = %v, want %v", vals["gate_detection_lag_mean"], wantMean)
	}
	if len(snap.Hists) == 0 || snap.Hists[0].Count != int64(g.Detections) {
		t.Errorf("detection-lag histogram count does not match Detections=%d", g.Detections)
	}
	// The per-DC shards must have accounted every gate-admitted task
	// (injected tasks enter through InjectRequeued and are mirrored by the
	// per-DC requeued/restored counters instead).
	admitted := vals["gate_admitted_total"]
	var dcArrivals float64
	for _, d := range eng.DCList() {
		dsnap := d.Sim().Telemetry().Snapshot()
		for _, s := range dsnap.Scalars {
			if s.Name == "arrivals_total" {
				dcArrivals += s.Value
			}
		}
	}
	if dcArrivals != admitted {
		t.Errorf("per-DC arrivals %v != gate admitted %v", dcArrivals, admitted)
	}
	if !bytes.Contains(series, []byte("# telemetry scope=cluster")) ||
		!bytes.Contains(series, []byte("# telemetry scope=dc2")) {
		t.Fatalf("series CSV missing shard blocks:\n%s", series[:min(len(series), 400)])
	}
}

// TestTelemetryPhaseBreakdown: with Config.Phases on, the merged breakdown
// must carry spans for every phase the trial exercises.
func TestTelemetryPhaseBreakdown(t *testing.T) {
	eng, _ := telemetryTrial(t, "pet-aware", false)
	pt := eng.Phases()
	if pt == nil {
		t.Fatal("Phases() nil with Config.Phases on")
	}
	bd := pt.Breakdown()
	for _, p := range []telemetry.Phase{telemetry.PhaseDispatch, telemetry.PhaseAdmit, telemetry.PhaseStep, telemetry.PhaseEval, telemetry.PhaseConvolve} {
		if bd[p].Count == 0 {
			t.Errorf("phase %s recorded no spans", p)
		}
	}
	var sb strings.Builder
	if err := pt.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dispatch") {
		t.Fatalf("phase table:\n%s", sb.String())
	}
}

// TestTelemetryTemplateValidation: per-DC simulators own their telemetry
// shards and phase timers; a template that smuggles either in is rejected,
// mirroring the existing Trace template rule.
func TestTelemetryTemplateValidation(t *testing.T) {
	matrix := clusterPET(t)
	base := clusterConfig(t, "PAM", matrix, 3, nil, nil)

	bad := base
	bad.Sim.Telemetry = &telemetry.Options{}
	if _, err := New(bad); err == nil {
		t.Error("template-level telemetry options accepted")
	}
	bad = base
	bad.Sim.PhaseTimer = telemetry.NewPhaseTimer()
	if _, err := New(bad); err == nil {
		t.Error("template-level phase timer accepted")
	}
	// Simulator-level knobs still work when used directly.
	simCfg := base.Sim
	simCfg.Machines = []int{0, 1}
	simCfg.Telemetry = &telemetry.Options{SampleEvery: 10}
	simCfg.PhaseTimer = telemetry.NewPhaseTimer()
	if _, err := simulator.New(simCfg); err != nil {
		t.Fatalf("direct simulator telemetry rejected: %v", err)
	}
}

// TestGateCountersReadTheirStore is the engine-side twin of the
// simulator's TestCountersReadTheirStore. Driven live through the
// heartbeat-detection storm, with no sample boundary inside the run, the
// engine shard's counters must equal the engine's own tallies after every
// burst: the gate counters Gate(), gate_arrivals_total Submitted(), and
// InFlight() must be Submitted() minus the exits so far. With the gate
// buffer on nothing is dropped at the gate; without it nothing is
// buffered or shed. Runs under -race via make race-telemetry.
func TestGateCountersReadTheirStore(t *testing.T) {
	storm := func(buffer int, shed scenario.ShedKind) *scenario.Scenario {
		sc := detectStormScenario()
		fo := *sc.Failover
		fo.GateBuffer, fo.Shed = buffer, shed
		sc.Failover = &fo
		return sc
	}
	for _, tc := range []struct {
		name string
		sc   *scenario.Scenario
		idle []string // counters this configuration cannot move
	}{
		{"buffered", storm(4, scenario.ShedDeadlineAware), []string{"gate_dropped_total"}},
		{"unbuffered", storm(0, scenario.ShedDropNewest), []string{"gate_shed_total", "gate_buffered_total"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			matrix := clusterPET(t)
			policy, err := NewPolicy("pet-aware")
			if err != nil {
				t.Fatal(err)
			}
			cfg := clusterConfig(t, "PAM", matrix, 3, policy, tc.sc)
			cfg.Telemetry = &telemetry.Options{SampleEvery: 1 << 40}
			eng, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(burst int) map[string]float64 {
				t.Helper()
				g := eng.Gate()
				store := map[string]int64{
					"gate_arrivals_total":            int64(eng.Submitted()),
					"gate_admitted_total":            int64(eng.admitted),
					"gate_injected_total":            int64(eng.injected),
					"gate_dropped_total":             int64(g.Dropped),
					"gate_shed_total":                int64(g.Shed),
					"gate_lost_undetected_total":     int64(g.LostUndetected),
					"gate_retries_total":             int64(g.Retries),
					"gate_bounced_total":             int64(g.Bounced),
					"gate_buffered_total":            int64(g.Buffered),
					"gate_detections_total":          int64(g.Detections),
					"gate_detection_lag_ticks_total": g.DetectionLagTicks,
				}
				got := map[string]float64{}
				for _, sv := range eng.Telemetry().Snapshot().Scalars {
					if sv.Kind != telemetry.KindCounter {
						continue
					}
					want, ok := store[sv.Name]
					if !ok {
						t.Fatalf("counter %s has no store to check against", sv.Name)
					}
					if sv.Value != float64(want) {
						t.Fatalf("after burst %d: %s = %v, its store holds %d", burst, sv.Name, sv.Value, want)
					}
					got[sv.Name] = sv.Value
				}
				if len(got) != len(store) {
					t.Fatalf("snapshot has %d counters, want %d", len(got), len(store))
				}
				if in, want := eng.InFlight(), eng.Submitted()-eng.LiveCounts().Total; in != want {
					t.Fatalf("after burst %d: InFlight = %d, want Submitted − exits = %d", burst, in, want)
				}
				return got
			}
			tasks := clusterWorkload(t, matrix, 150, 42)
			sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Arrival < tasks[j].Arrival })
			if err := eng.StartLive(nil); err != nil {
				t.Fatal(err)
			}
			// Quiesce moves the clock past later arrivals, so each burst is
			// restamped to start no earlier than Now, as the daemon does.
			var final map[string]float64
			var shift int64
			for b := 0; b*10 < len(tasks); b++ {
				burst := tasks[b*10 : min(len(tasks), (b+1)*10)]
				shift = max(shift, eng.Now()-burst[0].Arrival)
				for _, tk := range burst {
					tk.Arrival += shift
					tk.Deadline += shift
					if err := eng.SubmitLive(tk); err != nil {
						t.Fatal(err)
					}
				}
				if err := eng.Quiesce(); err != nil {
					t.Fatal(err)
				}
				final = check(b)
			}
			if n := eng.TelemetrySampler().Len(); n != 0 {
				t.Fatalf("%d sample rows inside the run: the checks must read between boundaries", n)
			}
			idle := map[string]bool{}
			for _, name := range tc.idle {
				idle[name] = true
			}
			for name, v := range final {
				if (v == 0) != idle[name] {
					t.Errorf("%s = %v after the last burst (idle in this configuration: %v)", name, v, idle[name])
				}
			}
		})
	}
}
