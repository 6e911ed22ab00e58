package simulator

import (
	"fmt"
	"reflect"
	"testing"

	"taskprune/internal/heuristics"
	"taskprune/internal/metrics"
	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/scenario"
	"taskprune/internal/stats"
	"taskprune/internal/trace"
	"taskprune/internal/workload"
)

// runTraced simulates one fixed workload under cfg and returns the full
// decision trace plus the trial statistics.
func runTraced(t *testing.T, cfg Config, matrix *pet.Matrix, seed int64) ([]trace.Event, metrics.TrialStats) {
	t.Helper()
	rng := stats.NewRNG(seed)
	wcfg := workload.Config{
		NumTasks: 250,
		Rate:     workload.RateForLevel(workload.Level34k),
		VarFrac:  0.10,
		Beta:     2.0,
	}
	cfg.Scenario.ApplyBursts(&wcfg)
	tasks, err := workload.Generate(wcfg, matrix, rng)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	cfg.Trace = rec
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(tasks)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Events(), st
}

// assertNaiveEquivalent runs cfg twice per seed — as given and with
// NaiveEval, the exhaustive oracle — and fails unless the decision traces
// are byte-identical and the statistics equal.
func assertNaiveEquivalent(t *testing.T, cfg Config, matrix *pet.Matrix, seeds int64) {
	t.Helper()
	cached := cfg
	cached.NaiveEval = false
	naive := cfg
	naive.NaiveEval = true
	for seed := int64(1); seed <= seeds; seed++ {
		evC, stC := runTraced(t, cached, matrix, seed)
		evN, stN := runTraced(t, naive, matrix, seed)
		if !reflect.DeepEqual(evC, evN) {
			for i := range evC {
				if i >= len(evN) || evC[i] != evN[i] {
					t.Fatalf("seed %d: traces diverge at event %d: cached %v, naive %v",
						seed, i, evC[i], evN[i])
				}
			}
			t.Fatalf("seed %d: cached trace has %d events, naive %d", seed, len(evC), len(evN))
		}
		if !reflect.DeepEqual(stC, stN) {
			t.Fatalf("seed %d: stats diverge:\ncached: %+v\nnaive:  %+v", seed, stC, stN)
		}
	}
}

// TestCachedEvalEquivalence: the incremental evaluation cache (per-(task,
// machine) slots keyed by tail stamps, plus the cross-event tail memo) and
// phase one's success bound must be pure optimizations — the same
// workload and seed must yield a byte-identical decision trace and
// identical robustness statistics with them enabled and with NaiveEval
// recomputing everything, under all three dropping scenarios.
//
// The evict/k=2 and evict/k=4 cases compact every tail to two and four
// impulses. There a four-group success bound is exact, and Compact moves
// mass by up to half a tail's span, so a stale-rule slack too small to
// cover those moves would let the cached run skip a machine the naive run
// maps onto.
func TestCachedEvalEquivalence(t *testing.T) {
	matrix := simPET(t)
	for _, name := range []string{"PAM", "PAMF"} {
		for _, mode := range []pmf.DropMode{pmf.NoDrop, pmf.PendingDrop, pmf.Evict} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				cfg := MustConfigFor(name, matrix)
				cfg.Mode = mode
				cfg.EvictAtDeadline = mode == pmf.Evict
				assertNaiveEquivalent(t, cfg, matrix, 3)
			})
		}
		for _, k := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/evict/k=%d", name, k), func(t *testing.T) {
				spec := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
				cfg := MustConfigFor(name, spec)
				cfg.MaxImpulses = k
				assertNaiveEquivalent(t, cfg, spec, 3)
			})
		}
	}
}

// TestCachedEvalEquivalenceMOC extends the cache equivalence check to MOC,
// whose permutation search reads the cached tails directly and whose phase
// one skips machines below its culling threshold.
func TestCachedEvalEquivalenceMOC(t *testing.T) {
	matrix := simPET(t)
	cfg := MustConfigFor("MOC", matrix)
	for _, mode := range []pmf.DropMode{pmf.NoDrop, pmf.PendingDrop, pmf.Evict} {
		cfg.Mode = mode
		naive := cfg
		naive.NaiveEval = true
		evC, stC := runTraced(t, cfg, matrix, 7)
		evN, stN := runTraced(t, naive, matrix, 7)
		if !reflect.DeepEqual(evC, evN) || !reflect.DeepEqual(stC, stN) {
			t.Fatalf("mode %v: cached and naive MOC runs diverge", mode)
		}
	}
}

// churnScenarios are the fleet-event mixes the equivalence tests replay:
// failures, recoveries, degradations, and a burst, alone and together.
func churnScenarios() map[string]*scenario.Scenario {
	return map[string]*scenario.Scenario{
		"fail-requeue-recover": scenario.New("frr").
			FailAt(300, 1, scenario.Requeue).
			RecoverAt(600, 1),
		"fail-drop": scenario.New("fd").
			FailAt(250, 0, scenario.Drop).
			RecoverAt(500, 0),
		"degrade-mid-trial": scenario.New("deg").
			DegradeAt(200, 0, 2).
			DegradeAt(700, 0, 1).
			DegradeAt(350, 1, 1.5),
		"everything-at-once": scenario.New("all").
			StartDown(1).
			RecoverAt(150, 1).
			DegradeAt(250, 0, 2.5).
			FailAt(400, 0, scenario.Requeue).
			RecoverAt(650, 0).
			BurstWindow(100, 500, 3),
	}
}

// TestCachedEvalEquivalenceUnderScenario is the churn counterpart: fleet
// events invalidate evaluation-cache columns and tail memos mid-trial
// (failure empties a queue, recovery revives a column, degradation swaps
// every scaled profile on a machine), and the cached run must still retrace
// the naive run byte for byte through all of it.
func TestCachedEvalEquivalenceUnderScenario(t *testing.T) {
	matrix := simPET(t)
	for _, name := range []string{"PAM", "PAMF", "MOC"} {
		for scName, sc := range churnScenarios() {
			t.Run(name+"/"+scName, func(t *testing.T) {
				cfg := MustConfigFor(name, matrix)
				cfg.Scenario = sc
				assertNaiveEquivalent(t, cfg, matrix, 2)
			})
		}
	}
}

// TestBoundedPhaseOneThresholdSweep: phase one skips the machines whose
// success bound lies below the deciding threshold minus a tie margin — PAM
// and PAMF's defer threshold, MOC's culling threshold. Across thresholds
// from lax to near-certain, on a static fleet and under every churn
// scenario, the bound-pruned runs must retrace the exhaustive NaiveEval
// runs byte for byte.
func TestBoundedPhaseOneThresholdSweep(t *testing.T) {
	matrix := simPET(t)
	scenarios := churnScenarios()
	scenarios["static"] = nil
	for _, name := range []string{"PAM", "PAMF"} {
		for _, th := range []float64{0.3, 0.6, 0.9, 0.99} {
			for scName, sc := range scenarios {
				t.Run(fmt.Sprintf("%s/defer=%v/%s", name, th, scName), func(t *testing.T) {
					cfg := MustConfigFor(name, matrix)
					pc := *cfg.Pruner
					pc.DeferThreshold = th
					cfg.Pruner = &pc
					cfg.Scenario = sc
					assertNaiveEquivalent(t, cfg, matrix, 2)
				})
			}
		}
	}
	for _, th := range []float64{0.05, 0.3, 0.6, 0.9, 0.99} {
		for scName, sc := range scenarios {
			t.Run(fmt.Sprintf("MOC/cull=%v/%s", th, scName), func(t *testing.T) {
				cfg := MustConfigFor("MOC", matrix)
				cfg.Heuristic = heuristics.NewMOC(th)
				cfg.Scenario = sc
				assertNaiveEquivalent(t, cfg, matrix, 2)
			})
		}
	}
}
