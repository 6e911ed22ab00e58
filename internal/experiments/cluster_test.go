package experiments

import (
	"reflect"
	"testing"

	"taskprune/internal/simulator"
	"taskprune/internal/workload"
)

// TestClusterStreamedParallelDeterminism: sharded trials add a second
// layer of per-trial state (the engine, per-DC simulators, a fresh policy
// instance each) on top of the streamed sources; this pins that
// RunClusterPoint is race-free and that a 4-DC trial with mid-trial
// whole-DC outages yields identical cluster statistics under any worker
// count. CI runs this test under -race alongside the single-fleet
// streamed job.
func TestClusterStreamedParallelDeterminism(t *testing.T) {
	matrix := SPECPET()
	o := Options{Trials: 6, Tasks: 200, Seed: 5, Beta: 2.0, VarFrac: 0.10, Streamed: true}
	wcfg := o.workloadConfig(workload.Level19k)
	cp := ClusterPoint{DCs: 4, Route: "pet-aware", Scenario: clusterOutageScenario(4, 1)}
	run := func(workers int) []metricsStats {
		o := o
		o.Workers = workers
		trials, err := o.RunClusterPoint(matrix, wcfg, simulator.MustConfigFor("PAM", matrix), cp)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]metricsStats, len(trials))
		for i, tr := range trials {
			out[i] = metricsStats{tr.RobustnessPct, tr.Completed, tr.Dropped, tr.Missed, tr.Total}
		}
		return out
	}
	serial := run(1)
	parallel := run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("sharded trials depend on worker count:\n 1 worker:  %v\n 4 workers: %v", serial, parallel)
	}
	for i, tr := range serial {
		if tr.Total != o.Tasks {
			t.Fatalf("cluster trial %d accounted %d of %d tasks", i, tr.Total, o.Tasks)
		}
	}
}

// TestClusterFaultToleranceSmoke runs the cluster study at smoke scale and
// checks its shape: every (shard count × outage count) point is present
// and outage-free points are no worse than their 2-outage counterparts.
func TestClusterFaultToleranceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster study sweep in -short mode")
	}
	o := Options{Trials: 2, Tasks: 300, Seed: 1, Beta: 2.0, VarFrac: 0.10}
	fig, err := ClusterFaultTolerance(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 6 {
		t.Fatalf("cluster-fault has %d points, want 6", len(fig.Points))
	}
	for _, series := range []string{"2DC", "4DC"} {
		calm, ok1 := fig.FindPoint(series, "0 outages")
		storm, ok2 := fig.FindPoint(series, "2 outages")
		if !ok1 || !ok2 {
			t.Fatalf("%s: missing sweep points", series)
		}
		if calm.Robustness.Mean < storm.Robustness.Mean {
			t.Errorf("%s: robustness rose under outages: calm %.1f%% vs storm %.1f%%",
				series, calm.Robustness.Mean, storm.Robustness.Mean)
		}
	}
}
