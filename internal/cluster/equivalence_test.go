package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"taskprune/internal/metrics"
	"taskprune/internal/scenario"
	"taskprune/internal/simulator"
	"taskprune/internal/trace"
	"taskprune/internal/workload"
)

// TestClusterEquivalenceSingleDC pins the acceptance bar of the sharding
// layer: a 1-DC cluster under the round-robin policy is not an
// approximation of the single-fleet engine, it IS the single-fleet engine
// — byte-identical decision traces and identical trial statistics, for
// both the cluster aggregate and the lone datacenter's own collector,
// across heuristic classes and under fleet churn (including a drift ramp,
// which exercises the staircase expansion through both paths).
func TestClusterEquivalenceSingleDC(t *testing.T) {
	churn := scenario.New("churn").
		DegradeAt(80, 1, 2).
		FailAt(150, 2, scenario.Requeue).
		RecoverAt(320, 2).
		DriftAt(200, 500, 0, 1, 3, 4)
	for _, name := range []string{"PAM", "PAMF", "MOC", "MM"} {
		for _, variant := range []struct {
			label string
			sc    *scenario.Scenario
		}{{"static", nil}, {"churn", churn}} {
			t.Run(name+"/"+variant.label, func(t *testing.T) {
				singleTrace, singleStats := runSingleFleet(t, name, variant.sc)
				clusterTraceCSV, clusterStats, dcStats := runOneDCCluster(t, name, variant.sc)
				if !bytes.Equal(singleTrace, clusterTraceCSV) {
					divergeAt(t, singleTrace, clusterTraceCSV)
				}
				if !reflect.DeepEqual(singleStats, clusterStats) {
					t.Errorf("cluster aggregate stats diverge:\n single: %+v\ncluster: %+v", singleStats, clusterStats)
				}
				if !reflect.DeepEqual(singleStats, dcStats) {
					t.Errorf("datacenter stats diverge:\n single: %+v\n     dc: %+v", singleStats, dcStats)
				}
			})
		}
	}
}

func runSingleFleet(t *testing.T, name string, sc *scenario.Scenario) ([]byte, metrics.TrialStats) {
	t.Helper()
	matrix := clusterPET(t)
	cfg, err := simulator.ConfigFor(name, matrix)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = sc
	rec := trace.NewRecorder()
	cfg.Trace = rec
	sim, err := simulator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(clusterWorkload(t, matrix, 150, 42))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), st
}

func runOneDCCluster(t *testing.T, name string, sc *scenario.Scenario) ([]byte, metrics.TrialStats, metrics.TrialStats) {
	t.Helper()
	matrix := clusterPET(t)
	cfg := clusterConfig(t, name, matrix, 1, &RoundRobin{}, sc)
	rec := trace.NewRecorder()
	cfg.Traces = []*trace.Recorder{rec}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, perDC, err := eng.RunSource(workload.FromTasks(clusterWorkload(t, matrix, 150, 42)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), st, perDC[0]
}

func divergeAt(t *testing.T, want, got []byte) {
	t.Helper()
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(got, []byte("\n"))
	n := len(wantLines)
	if len(gotLines) < n {
		n = len(gotLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wantLines[i], gotLines[i]) {
			t.Fatalf("decision trace diverges at line %d:\n single: %s\ncluster: %s", i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("trace length changed: single %d lines, cluster %d", len(wantLines), len(gotLines))
}
