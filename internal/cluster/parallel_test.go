package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"taskprune/internal/scenario"
	"taskprune/internal/workload"
)

// churnOutageScenario layers machine-scoped churn (a fail/recover cycle
// and a degradation drift) on top of a whole-DC outage, so the parallel
// driver is exercised across every event family at once.
func churnOutageScenario(policy scenario.Policy) *scenario.Scenario {
	return scenario.New("churn-outage").
		FailAt(60, 2, policy).
		RecoverAt(180, 2).
		DriftAt(80, 240, 4, 1.0, 1.8, 4).
		DCFailAt(100, 0, policy).
		DCRecoverAt(250, 0)
}

// TestClusterParallelStepDeterminism is the parallel engine's contract:
// for round-robin routing (the wide-window driver), under a static fleet
// and under churn-with-outages, the full deterministic record — per-DC
// decision traces, dispatch log, cluster and per-DC statistics — is
// byte-identical to the sequential path at every GOMAXPROCS setting. Run
// under -race (make race-cluster / race-stream), this doubles as the
// data-race proof for the shared collector and the worker handoffs. The
// stateful routes (pet-aware, least-queued) must be refused the parallel
// knob; their subtests pin that and replay the sequential path at every
// setting instead.
func TestClusterParallelStepDeterminism(t *testing.T) {
	matrix := clusterPET(t)
	scenarios := []struct {
		name string
		sc   *scenario.Scenario
	}{
		{"static", nil},
		{"churn-outage", churnOutageScenario(scenario.Requeue)},
		{"churn-outage-drop", churnOutageScenario(scenario.Drop)},
	}
	for _, route := range []string{"pet-aware", "least-queued", "round-robin"} {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/%s", route, sc.name), func(t *testing.T) {
				par := parallelArm(t, route)
				wantBlob, _, wantStats, wantPerDC := clusterTrialMode(t, matrix, "PAM", route, sc.sc, false)
				for _, gmp := range []int{1, 4, 8} {
					prev := runtime.GOMAXPROCS(gmp)
					blob, _, stats, perDC := clusterTrialMode(t, matrix, "PAM", route, sc.sc, par)
					runtime.GOMAXPROCS(prev)
					if string(blob) != string(wantBlob) {
						t.Fatalf("GOMAXPROCS=%d: parallel record diverges from sequential (%d vs %d bytes)",
							gmp, len(blob), len(wantBlob))
					}
					if !reflect.DeepEqual(stats, wantStats) {
						t.Fatalf("GOMAXPROCS=%d: cluster stats diverge:\nseq: %+v\npar: %+v", gmp, wantStats, stats)
					}
					if !reflect.DeepEqual(perDC, wantPerDC) {
						t.Fatalf("GOMAXPROCS=%d: per-DC stats diverge", gmp)
					}
				}
			})
		}
	}
}

// parallelArm reports whether route may step its datacenters in parallel:
// only round-robin may. For a stateful route it first checks that New
// refuses the parallel knob, so a determinism subtest over that route
// replays the sequential path at each GOMAXPROCS setting instead.
func parallelArm(t *testing.T, route string) bool {
	t.Helper()
	if route == "round-robin" {
		return true
	}
	policy, err := NewPolicy(route)
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig(t, "PAM", clusterPET(t), 3, policy, nil)
	cfg.Parallel = true
	if _, err := New(cfg); err == nil {
		t.Fatalf("%s: parallel stepping accepted for a stateful route", route)
	}
	return false
}

// TestParallelGateDrops pins the wide-window driver's gate-drop path: a
// total blackout drops arrivals at the gate from the dispatcher goroutine
// while workers drain concurrently, and the count and aggregate match the
// sequential run exactly.
func TestParallelGateDrops(t *testing.T) {
	matrix := clusterPET(t)
	tasks := clusterWorkload(t, matrix, 150, 9)
	sc := scenario.New("blackout").
		DCFailAt(100, 0, scenario.Requeue).
		DCFailAt(100, 1, scenario.Requeue)
	run := func(parallel bool) (int, int) {
		cfg := clusterConfig(t, "MM", matrix, 2, nil, sc)
		cfg.Parallel = parallel
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := eng.RunSource(workload.FromTasks(tasks))
		if err != nil {
			t.Fatal(err)
		}
		return eng.Gate().Dropped, st.Total
	}
	seqDrops, seqTotal := run(false)
	parDrops, parTotal := run(true)
	if seqDrops == 0 {
		t.Fatal("blackout scenario produced no gate drops")
	}
	if parDrops != seqDrops || parTotal != seqTotal {
		t.Fatalf("parallel gate accounting diverged: drops %d vs %d, total %d vs %d",
			parDrops, seqDrops, parTotal, seqTotal)
	}
}
