package simulator

import (
	"math/rand"
	"testing"

	"taskprune/internal/heuristics"
	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/pruner"
	"taskprune/internal/stats"
	"taskprune/internal/task"
	"taskprune/internal/workload"
)

// TestRandomizedInvariants fuzzes system configurations — random fleet
// shapes, queue capacities, loads, deadline slacks, pruning knobs,
// extensions — and checks the accounting invariants that must hold in every
// universe:
//
//  1. every task reaches exactly one terminal state;
//  2. no task "completes" after its deadline;
//  3. a completed task ran on exactly one machine and its timeline is
//     consistent (arrival <= start, start < finish);
//  4. trial statistics partition the window;
//  5. machine busy time never exceeds the trial span.
func TestRandomizedInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz-style invariants are slow")
	}
	heurNames := heuristics.AllNames()
	for iter := 0; iter < 12; iter++ {
		r := rand.New(rand.NewSource(int64(1000 + iter)))

		// Random fleet: 1-4 types × 1-5 machines, means in [8, 120].
		nTypes := 1 + r.Intn(4)
		nMachines := 1 + r.Intn(5)
		means := make([][]float64, nTypes)
		for ti := range means {
			means[ti] = make([]float64, nMachines)
			for mi := range means[ti] {
				means[ti][mi] = 8 + r.Float64()*112
			}
		}
		matrix, err := pet.Build(means, pet.BuildConfig{
			Samples: 150, Bins: 12, MaxImpulses: 12,
			ShapeLo: 1, ShapeHi: 20,
		}, stats.NewRNG(int64(iter)))
		if err != nil {
			t.Fatal(err)
		}

		name := heurNames[r.Intn(len(heurNames))]
		cfg := MustConfigFor(name, matrix)
		cfg.QueueCap = 1 + r.Intn(8)
		if cfg.Pruner != nil {
			pc := *cfg.Pruner
			pc.DropThreshold = r.Float64()
			pc.DeferThreshold = pc.DropThreshold + (1-pc.DropThreshold)*r.Float64()
			pc.Lambda = 0.1 + 0.9*r.Float64()
			pc.UseSchmitt = r.Intn(2) == 0
			pc.PerTaskAdjust = r.Intn(2) == 0
			cfg.Pruner = &pc
			// An unused draw: removing it would shift every configuration
			// drawn after it.
			r.Intn(2)
			if r.Intn(2) == 0 {
				cfg.ApproxFraction = 0.3 + 0.6*r.Float64()
			}
		}

		capacity := float64(nMachines) / matrix.GrandMean()
		load := 0.5 + 3.5*r.Float64() // undersubscribed through crushed
		wcfg := workload.Config{
			NumTasks: 80 + r.Intn(200),
			Rate:     capacity * load,
			VarFrac:  r.Float64(),
			Beta:     0.5 + 3*r.Float64(),
		}
		tasks, err := workload.Generate(wcfg, matrix, stats.NewRNG(int64(500+iter)))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(tasks)
		if err != nil {
			t.Fatalf("iter %d (%s): %v", iter, name, err)
		}

		// (1), (2), (3)
		for _, tk := range tasks {
			if !tk.Done() {
				t.Fatalf("iter %d (%s): task %d non-terminal: %v", iter, name, tk.ID, tk.State)
			}
			switch tk.State {
			case task.StateCompleted:
				if tk.Finish > tk.Deadline {
					t.Fatalf("iter %d: task %d completed late (finish %d > deadline %d)", iter, tk.ID, tk.Finish, tk.Deadline)
				}
				fallthrough
			case task.StateMissed, task.StateApprox:
				if tk.Machine < 0 || tk.Machine >= nMachines {
					t.Fatalf("iter %d: executed task %d has machine %d", iter, tk.ID, tk.Machine)
				}
				if tk.Start < tk.Arrival {
					t.Fatalf("iter %d: task %d started before arrival", iter, tk.ID)
				}
				if tk.Finish <= tk.Start && tk.Finish != tk.Start+1 {
					// one-tick floor allows finish == start+1
					t.Fatalf("iter %d: task %d finish %d <= start %d", iter, tk.ID, tk.Finish, tk.Start)
				}
			}
		}
		// (4)
		if st.Completed+st.Missed+st.Dropped+st.Approx != st.Window {
			t.Fatalf("iter %d: window partition broken: %+v", iter, st)
		}
		if st.Total != len(tasks) {
			t.Fatalf("iter %d: total %d != %d", iter, st.Total, len(tasks))
		}
		// (5)
		for _, m := range sim.Machines() {
			if m.BusyTicks(sim.Now()) > sim.Now() {
				t.Fatalf("iter %d: machine %d busy %d > span %d", iter, m.ID, m.BusyTicks(sim.Now()), sim.Now())
			}
		}
	}
}

// TestOversubscriptionMonotonicity: for the pruning mapper, robustness must
// not improve as load rises (averaged over trials) — the most basic sanity
// property of the whole evaluation.
func TestOversubscriptionMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial comparison is slow")
	}
	matrix := simPET(t)
	meanRob := func(rate float64) float64 {
		var sum float64
		const trials = 4
		for trial := int64(0); trial < trials; trial++ {
			cfg := baseConfig(t, "PAM", matrix)
			sim, _ := New(cfg)
			tasks, err := workload.Generate(workload.Config{NumTasks: 300, Rate: rate, VarFrac: 0.1, Beta: 2}, matrix, stats.NewRNG(trial+7))
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run(tasks)
			if err != nil {
				t.Fatal(err)
			}
			sum += st.RobustnessPct
		}
		return sum / trials
	}
	low, mid, high := meanRob(0.08), meanRob(0.16), meanRob(0.32)
	t.Logf("robustness at 1x/2x/4x capacity: %.1f / %.1f / %.1f", low, mid, high)
	const slack = 3.0 // trial noise tolerance in percentage points
	if mid > low+slack || high > mid+slack {
		t.Errorf("robustness not monotone in load: %.1f, %.1f, %.1f", low, mid, high)
	}
}

// TestDeferThresholdEffect: raising the deferring threshold from a low
// value to the paper's 90% must improve PAM robustness at heavy load — the
// finding of Figure 5.
func TestDeferThresholdEffect(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial comparison is slow")
	}
	matrix := simPET(t)
	meanRob := func(deferTh float64) float64 {
		var sum float64
		const trials = 4
		for trial := int64(0); trial < trials; trial++ {
			cfg := baseConfig(t, "PAM", matrix)
			pc := *cfg.Pruner
			pc.DropThreshold = 0.25
			pc.DeferThreshold = deferTh
			cfg.Pruner = &pc
			sim, _ := New(cfg)
			tasks, err := workload.Generate(workload.Config{NumTasks: 400, Rate: 0.3, VarFrac: 0.1, Beta: 2}, matrix, stats.NewRNG(trial+31))
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run(tasks)
			if err != nil {
				t.Fatal(err)
			}
			sum += st.RobustnessPct
		}
		return sum / trials
	}
	lowDefer, highDefer := meanRob(0.30), meanRob(0.90)
	t.Logf("robustness defer=30%%: %.1f, defer=90%%: %.1f", lowDefer, highDefer)
	if highDefer <= lowDefer {
		t.Errorf("high deferring threshold did not help: %.1f vs %.1f", highDefer, lowDefer)
	}
}

// TestFairnessReducesVariance: PAMF with a 5% factor must cut per-type
// completion variance versus a 0% factor at heavy load — Figure 6's
// finding.
func TestFairnessReducesVariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial comparison is slow")
	}
	matrix := experimentsSPEC(t)
	meanVar := func(factor float64) float64 {
		var sum float64
		const trials = 3
		for trial := int64(0); trial < trials; trial++ {
			cfg := MustConfigFor("PAMF", matrix)
			cfg.FairnessFactor = factor
			sim, _ := New(cfg)
			tasks, err := workload.Generate(workload.Config{NumTasks: 600, Rate: 0.19, VarFrac: 0.1, Beta: 2}, matrix, stats.NewRNG(trial+11))
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run(tasks)
			if err != nil {
				t.Fatal(err)
			}
			sum += st.TypeVariancePct
		}
		return sum / trials
	}
	noFair, withFair := meanVar(0), meanVar(0.05)
	t.Logf("type variance ϑ=0: %.1f, ϑ=5%%: %.1f", noFair, withFair)
	if withFair >= noFair {
		t.Errorf("fairness factor did not reduce variance: %.1f vs %.1f", withFair, noFair)
	}
}

// experimentsSPEC builds the 12×8 SPEC-like matrix (without importing the
// experiments package, which would create a cycle through simulator).
func experimentsSPEC(t *testing.T) *pet.Matrix {
	t.Helper()
	cfg := pet.DefaultBuildConfig()
	cfg.Samples = 200
	m, err := pet.Build(pet.SPECLikeMeans(), cfg, stats.NewRNG(0xBEEF))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPrunerNeverRunsForBaselines: even with a pruner config present,
// baselines (UsesPruning() == false) must not get one.
func TestPrunerNeverRunsForBaselines(t *testing.T) {
	matrix := simPET(t)
	cfg := MustConfigFor("MM", matrix)
	pc := pruner.DefaultConfig()
	cfg.Pruner = &pc // deliberately miswired
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Pruner() != nil {
		t.Error("baseline got a pruner")
	}
	_ = pmf.NoDrop // document that baselines run scenario-A/B estimates
}
