package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"taskprune/internal/metrics"
	"taskprune/internal/pet"
	"taskprune/internal/scenario"
	"taskprune/internal/trace"
	"taskprune/internal/workload"
)

// Golden cluster regression tests: the full sharded decision stream of a
// 3-DC PAM trial with one dc-fail/dc-recover cycle — dispatcher routing
// log, per-datacenter decision traces, and aggregated statistics — is
// committed under testdata/ and must replay byte for byte, for both
// failover policies. Regenerate after an intentional behavior change with
//
//	go test ./internal/cluster/ -run Golden -update
//
// and review the diff like any other scheduling change.
var updateGolden = flag.Bool("update", false, "rewrite golden cluster trace files")

// clusterTrial runs the fixed 3-DC golden configuration (150 tasks, seed
// 42, PAM, PET-aware routing over the 3×6 test PET) under the given
// scenario and renders the full deterministic record: statistics, the
// dispatch log, and each datacenter's decision trace.
func clusterTrial(t testing.TB, matrix *pet.Matrix, heuristic, route string, sc *scenario.Scenario) ([]byte, []Dispatch, metrics.TrialStats, []metrics.TrialStats) {
	t.Helper()
	return clusterTrialMode(t, matrix, heuristic, route, sc, false)
}

// clusterTrialMode is clusterTrial with the Parallel knob exposed: the
// parallel determinism tests render the sequential path and the
// wide-window driver through the same code and demand byte equality.
func clusterTrialMode(t testing.TB, matrix *pet.Matrix, heuristic, route string, sc *scenario.Scenario, parallel bool) ([]byte, []Dispatch, metrics.TrialStats, []metrics.TrialStats) {
	t.Helper()
	const dcs = 3
	policy, err := NewPolicy(route)
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterConfig(t, heuristic, matrix, dcs, policy, sc)
	cfg.RecordDispatch = true
	cfg.Parallel = parallel
	cfg.Traces = make([]*trace.Recorder, dcs)
	for d := range cfg.Traces {
		cfg.Traces[d] = trace.NewRecorder()
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := clusterWorkload(t, matrix, 150, 42)
	st, perDC, err := eng.RunSource(workload.FromTasks(tasks))
	if err != nil {
		t.Fatal(err)
	}

	scName := "static"
	if sc != nil {
		scName = sc.Name
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# cluster %s route=%s dcs=%d scenario=%s\n", heuristic, route, dcs, scName)
	fmt.Fprintln(&buf, "# stats scope,total,completed,missed,dropped,approx,robustness_pct")
	writeStats := func(scope string, s metrics.TrialStats) {
		fmt.Fprintf(&buf, "%s,%d,%d,%d,%d,%d,%.6f\n", scope, s.Total, s.Completed, s.Missed, s.Dropped, s.Approx, s.RobustnessPct)
	}
	writeStats("cluster", st)
	for d, s := range perDC {
		writeStats(fmt.Sprintf("dc%d", d), s)
	}
	// Gate counters join the record only when a failover policy is on, so
	// the pre-existing nil-policy goldens stay byte-identical.
	if g := eng.Gate(); eng.Failover().Enabled() {
		fmt.Fprintln(&buf, "# gate dropped,shed,lost,retries,bounced,buffered,maxdepth,detections,lag")
		fmt.Fprintf(&buf, "%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			g.Dropped, g.Shed, g.LostUndetected, g.Retries, g.Bounced, g.Buffered, g.MaxQueueDepth, g.Detections, g.DetectionLagTicks)
		fmt.Fprintf(&buf, "# lost-per-dc %v\n", eng.LostUndetectedByDC())
	}
	fmt.Fprintln(&buf, "# dispatch tick,task,dc,failover")
	for _, d := range eng.Dispatches() {
		fo := 0
		if d.Failover {
			fo = 1
		}
		fmt.Fprintf(&buf, "%d,%d,%d,%d\n", d.Tick, d.TaskID, d.DC, fo)
	}
	for d, rec := range cfg.Traces {
		fmt.Fprintf(&buf, "# dc%d trace\n", d)
		if err := rec.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), eng.Dispatches(), st, perDC
}

func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if bytes.Equal(want, got) {
		return
	}
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(got, []byte("\n"))
	n := len(wantLines)
	if len(gotLines) < n {
		n = len(gotLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			t.Fatalf("%s: cluster record diverges at line %d:\n  golden: %s\n  got:    %s",
				file, i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("%s: record length changed: golden %d lines, got %d", file, len(wantLines), len(gotLines))
}

func TestGoldenClusterOutageRequeue(t *testing.T) {
	blob, _, _, _ := clusterTrial(t, clusterPET(t), "PAM", "pet-aware", outageScenario(scenario.Requeue))
	checkGolden(t, "golden_cluster_requeue.csv", blob)
}

func TestGoldenClusterOutageDrop(t *testing.T) {
	blob, _, _, _ := clusterTrial(t, clusterPET(t), "PAM", "pet-aware", outageScenario(scenario.Drop))
	checkGolden(t, "golden_cluster_drop.csv", blob)
}
