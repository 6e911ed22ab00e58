package taskprune

import (
	"testing"

	"taskprune/internal/workload"
)

// TestFacadeEndToEnd exercises the public API exactly the way the package
// documentation advertises it.
func TestFacadeEndToEnd(t *testing.T) {
	matrix := SPECPET()
	cfg := MustConfigFor("PAM", matrix)
	tasks := MustGenerateWorkload(WorkloadConfig{
		NumTasks: 200,
		Rate:     RateForLevel(workload.Level19k),
		VarFrac:  0.10,
		Beta:     2.0,
	}, matrix, NewRNG(42))
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 200 {
		t.Errorf("Total = %d, want 200", st.Total)
	}
	if st.RobustnessPct < 0 || st.RobustnessPct > 100 {
		t.Errorf("RobustnessPct = %v", st.RobustnessPct)
	}
}

// TestFacadeCustomPET builds a user-defined PET through the facade, the way
// a downstream adopter with their own profiling data would.
func TestFacadeCustomPET(t *testing.T) {
	means := [][]float64{
		{20, 60},
		{60, 20},
	}
	matrix, err := BuildPET(means, DefaultPETBuildConfig(), NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if matrix.NumTypes() != 2 || matrix.NumMachines() != 2 {
		t.Fatalf("matrix %dx%d", matrix.NumTypes(), matrix.NumMachines())
	}
	cfg := MustConfigFor("PAMF", matrix)
	tasks := MustGenerateWorkload(WorkloadConfig{
		NumTasks: 100, Rate: 0.08, VarFrac: 0.1, Beta: 2,
	}, matrix, NewRNG(6))
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(tasks); err != nil {
		t.Fatal(err)
	}
}

// TestPaperHeadlineOrdering is the repository's headline assertion: at the
// extreme oversubscription level, the pruning mapper beats every baseline,
// MOC beats the scalar baselines, and the deadline/urgency-chasing
// heuristics collapse — the ordering of the paper's Figure 7.
func TestPaperHeadlineOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-heuristic comparison is slow; skipped in -short")
	}
	matrix := SPECPET()
	const trials = 3
	mean := map[string]float64{}
	for _, name := range []string{"PAM", "MOC", "MM", "MSD"} {
		var sum float64
		for trial := 0; trial < trials; trial++ {
			tasks := MustGenerateWorkload(WorkloadConfig{
				NumTasks: 800, Rate: RateForLevel(Level34k), VarFrac: 0.10, Beta: 2.0,
			}, matrix, NewRNG(1000+int64(trial)))
			sim, err := NewSimulator(MustConfigFor(name, matrix))
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run(tasks)
			if err != nil {
				t.Fatal(err)
			}
			sum += st.RobustnessPct
		}
		mean[name] = sum / trials
	}
	t.Logf("robustness @34k: PAM=%.1f MOC=%.1f MM=%.1f MSD=%.1f",
		mean["PAM"], mean["MOC"], mean["MM"], mean["MSD"])
	if !(mean["PAM"] > mean["MOC"]) {
		t.Errorf("PAM (%.1f) must beat MOC (%.1f)", mean["PAM"], mean["MOC"])
	}
	if !(mean["PAM"] > mean["MM"]+10) {
		t.Errorf("PAM (%.1f) must beat MM (%.1f) decisively", mean["PAM"], mean["MM"])
	}
	if !(mean["MSD"] < mean["MM"]) {
		t.Errorf("MSD (%.1f) should collapse below MM (%.1f) at extreme load", mean["MSD"], mean["MM"])
	}
}
