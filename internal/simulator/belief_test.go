package simulator

import (
	"math"
	"reflect"
	"testing"

	"taskprune/internal/scenario"
	"taskprune/internal/stats"
	"taskprune/internal/trace"
	"taskprune/internal/workload"
)

// TestBeliefOracleEquivalence: with the oracle belief — no policy at all,
// an explicit oracle-kind policy, or the zero value — the engine must be
// byte-identical to the pre-split engine for every heuristic class, static
// and churning alike. The committed golden traces pin the nil case against
// history; this pins the three oracle spellings against each other, so the
// belief gates can never leak into an oracle run. Runs under -race in CI
// (make race-stream).
func TestBeliefOracleEquivalence(t *testing.T) {
	matrix := simPET(t)
	churn := scenario.New("churn").
		DegradeAt(200, 0, 2).
		FailAt(300, 1, scenario.Requeue).
		RecoverAt(600, 1).
		DegradeAt(700, 0, 1)
	for _, name := range []string{"PAM", "PAMF", "MOC", "MM"} {
		for scName, sc := range map[string]*scenario.Scenario{"static": nil, "churn": churn} {
			t.Run(name+"/"+scName, func(t *testing.T) {
				base := MustConfigFor(name, matrix)
				base.Scenario = sc
				evWant, stWant := runTraced(t, base, matrix, 11)

				oracleKind := base
				oracleKind.Belief = &scenario.BeliefPolicy{Kind: scenario.BeliefOracle}
				zero := base
				zero.Belief = &scenario.BeliefPolicy{}
				for variant, cfg := range map[string]Config{"oracle-kind": oracleKind, "zero-value": zero} {
					ev, st := runTraced(t, cfg, matrix, 11)
					if !reflect.DeepEqual(ev, evWant) {
						for i := range evWant {
							if i >= len(ev) || ev[i] != evWant[i] {
								t.Fatalf("%s: traces diverge at event %d: nil-policy %v, %s %v",
									variant, i, evWant[i], variant, ev[i])
							}
						}
						t.Fatalf("%s: trace length %d, want %d", variant, len(ev), len(evWant))
					}
					if !reflect.DeepEqual(st, stWant) {
						t.Fatalf("%s: stats diverge:\nnil-policy: %+v\n%s: %+v", variant, stWant, variant, st)
					}
				}
			})
		}
	}
}

// TestFrozenBeliefMatchesOracleOnStaticFleet: when nothing degrades, a
// belief frozen at t=0 *is* the truth, so the frozen engine must replay the
// oracle byte for byte — the frozen view must introduce no perturbation of
// its own.
func TestFrozenBeliefMatchesOracleOnStaticFleet(t *testing.T) {
	matrix := simPET(t)
	base := MustConfigFor("PAM", matrix)
	evWant, stWant := runTraced(t, base, matrix, 11)

	frozen := base
	frozen.Belief = &scenario.BeliefPolicy{Kind: scenario.BeliefFrozen}
	ev, st := runTraced(t, frozen, matrix, 11)
	if !reflect.DeepEqual(ev, evWant) || !reflect.DeepEqual(st, stWant) {
		t.Fatalf("frozen belief diverged from the oracle on a static fleet:\noracle %+v\nfrozen %+v", stWant, st)
	}
}

// TestFrozenBeliefDivergesUnderDegradation: once the truth moves, the
// frozen mapper must actually schedule differently from the oracle —
// otherwise the belief split is wired to nothing.
func TestFrozenBeliefDivergesUnderDegradation(t *testing.T) {
	matrix := simPET(t)
	base := MustConfigFor("PAM", matrix)
	base.Scenario = scenario.New("slow").DegradeAt(100, 0, 3).DegradeAt(100, 1, 3)
	evWant, _ := runTraced(t, base, matrix, 11)

	frozen := base
	frozen.Belief = &scenario.BeliefPolicy{Kind: scenario.BeliefFrozen}
	ev, _ := runTraced(t, frozen, matrix, 11)
	if reflect.DeepEqual(ev, evWant) {
		t.Fatal("frozen belief replayed the oracle exactly under a 3x degradation; the belief view is not reaching the decision sites")
	}
}

// TestOnlineBeliefObservesAndRefreshes: an online run must feed completed
// executions to the estimator, trigger rebuilds past the sample floor,
// record BeliefRefreshed trace events, and expose matching counters.
func TestOnlineBeliefObservesAndRefreshes(t *testing.T) {
	matrix := simPET(t)
	cfg := MustConfigFor("PAM", matrix)
	cfg.Belief = &scenario.BeliefPolicy{Kind: scenario.BeliefOnline, MinSamples: 5, Refresh: 5}
	ev, _ := runTraced(t, cfg, matrix, 11)
	refreshes := 0
	for _, e := range ev {
		if e.Kind == trace.BeliefRefreshed {
			refreshes++
			if e.Value <= 0 || math.IsNaN(e.Value) {
				t.Fatalf("belief-refresh event carries learned mean %v, want positive", e.Value)
			}
		}
	}
	if refreshes == 0 {
		t.Fatal("250-task online run triggered no belief refreshes at floor 5")
	}
}

// TestOnlineBeliefCounters: under the online policy the estimator must
// have seen completions and rebuilt cells from them.
func TestOnlineBeliefCounters(t *testing.T) {
	matrix := simPET(t)
	cfg := MustConfigFor("MM", matrix)
	cfg.Belief = &scenario.BeliefPolicy{Kind: scenario.BeliefOnline, MinSamples: 5, Refresh: 5}
	rng := stats.NewRNG(11)
	wcfg := workload.Config{NumTasks: 250, Rate: workload.RateForLevel(workload.Level34k), VarFrac: 0.10, Beta: 2.0}
	tasks, err := workload.Generate(wcfg, matrix, rng)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(tasks); err != nil {
		t.Fatal(err)
	}
	ob := sim.Belief()
	if ob == nil {
		t.Fatal("online policy but no estimator")
	}
	if ob.Observations() == 0 {
		t.Fatal("no completions observed")
	}
	if ob.Refreshes() == 0 {
		t.Fatal("observations triggered no belief refreshes")
	}
}

// TestBeliefPriorRequiresPolicy: a prior without a non-oracle policy is a
// configuration bug, not a silent no-op.
func TestBeliefPriorRequiresPolicy(t *testing.T) {
	matrix := simPET(t)
	cfg := MustConfigFor("MM", matrix)
	cfg.BeliefPrior = matrix
	if _, err := New(cfg); err == nil {
		t.Fatal("BeliefPrior with an oracle policy must be rejected")
	}
}
