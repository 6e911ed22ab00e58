package experiments

import (
	"fmt"

	"taskprune/internal/scenario"
	"taskprune/internal/simulator"
	"taskprune/internal/workload"
)

// This file quantifies what checkpoint/restore buys back from failures.
// The paper's robustness metric charges a failed machine's in-flight tasks
// their full cost — every requeue restarts from zero — so the fault studies
// systematically overstate the price of churn for any real system that
// checkpoints. The sweep crosses checkpoint interval with outage count,
// single-fleet and sharded: the single-fleet half shows how much of the
// churn penalty each interval recovers (and what the per-checkpoint
// overhead costs when nothing fails over), while the 3-DC half isolates
// the survival question — a checkpoint that dies with its datacenter
// (local) is worthless under dc-fail, and one that replicated out carries
// the drained tasks' progress, minus the replication-lag window, to the
// surviving datacenters. At paper scale that progress saves no task: at
// 30 trials × 800 tasks, 138 tasks cross a datacenter boundary with
// replicated credit and all 138 exit dropped, so the none, local and
// replicated rows of the 3-DC half print the same robustness.

// ckptVariant is one checkpoint policy under test.
type ckptVariant struct {
	label string
	p     *scenario.CheckpointPolicy
}

// checkpointVariants are the single-fleet policy sweep: no checkpointing
// (the engine's historical behaviour), a coarse and a fine interval at
// zero overhead (isolating the pure restore benefit), and the fine
// interval paying a realistic per-checkpoint overhead (the net effect —
// every task in the trial pays the checkpoint tax, only the failed ones
// collect the insurance). Intervals are in nominal execution ticks against
// task means of 50–200 ticks, so ck=100 checkpoints roughly once per mean
// task and ck=25 several times.
func checkpointVariants() []ckptVariant {
	return []ckptVariant{
		{"none", nil},
		{"ck=100", &scenario.CheckpointPolicy{Kind: scenario.CheckpointPeriodic, Interval: 100}},
		{"ck=25", &scenario.CheckpointPolicy{Kind: scenario.CheckpointPeriodic, Interval: 25}},
		{"ck=25+2", &scenario.CheckpointPolicy{Kind: scenario.CheckpointPeriodic, Interval: 25, Overhead: 2}},
	}
}

// checkpointChurnScenario builds the staggered failure storm for the
// single-fleet half: failure k takes machine k mod 8 down at tick 500+220·k
// (queues requeued) and brings it back 700 ticks later, so high failure
// counts keep 3–4 of the 8 machines dark at once and every failure
// interrupts whatever its machine was executing — the regime where restore
// credit has the most work to do. Calibrated like FaultScenario to the
// ≈4100-tick span of an 800-task trial at the 19k level.
func checkpointChurnScenario(failures int) *scenario.Scenario {
	sc := scenario.New(fmt.Sprintf("ckpt-churn-%d", failures))
	for k := 0; k < failures; k++ {
		fail := int64(500 + 220*k)
		sc.FailAt(fail, k%8, scenario.Requeue)
		sc.RecoverAt(fail+700, k%8)
	}
	return sc
}

// CheckpointRestore sweeps robustness against checkpoint interval and
// outage count at the 19k level. Single-fleet: PAM and MM under a 4- and a
// 12-failure storm, checkpointing off / coarse / fine / fine-with-overhead.
// 3-DC cluster (PAM, pet-aware routing, staggered whole-DC outages): the
// fine interval under both survival modes, pinning how much of the
// checkpoint benefit actually crosses a dc-fail failover.
//
// The headline finding is a calibrated null: at the paper's workload scale
// (50–200-tick tasks, β=2 deadline slack) restores are rare — one
// executing task per failure — and the slack usually absorbs a from-zero
// restart anyway, so the pure restore benefit is only a few tenths of a
// robustness point even under a 12-failure storm, while a 2-tick overhead
// on a 25-tick interval costs a full 4–6 points. The churn price measured
// by the fault studies is capacity loss, not lost progress; checkpointing
// at this scale buys back wasted work (machine busy time), not deadlines.
func CheckpointRestore(o Options) (*Figure, error) {
	matrix := SPECPET()
	wcfg := o.workloadConfig(workload.Level19k)
	fig := &Figure{
		Name:    "Checkpoint",
		Caption: "robustness @19k: checkpoint interval vs failures (single fleet) and survival mode vs whole-DC outages (3 DCs)",
	}
	for _, name := range []string{"PAM", "MM"} {
		for _, v := range checkpointVariants() {
			for _, failures := range []int{4, 12} {
				cfg := simulator.MustConfigFor(name, matrix)
				cfg.Scenario = checkpointChurnScenario(failures)
				cfg.Checkpoint = v.p
				trials, err := o.RunPoint(matrix, wcfg, cfg)
				if err != nil {
					return nil, fmt.Errorf("checkpoint %s/%s/%d failures: %w", name, v.label, failures, err)
				}
				fig.Points = append(fig.Points, NewPoint(name+" "+v.label, fmt.Sprintf("%d failures", failures), trials))
			}
		}
	}
	replicated := &scenario.CheckpointPolicy{
		Kind: scenario.CheckpointPeriodic, Interval: 25,
		Survival: scenario.SurviveReplicated, ReplicationLag: 10,
	}
	local := &scenario.CheckpointPolicy{Kind: scenario.CheckpointPeriodic, Interval: 25}
	for _, v := range []ckptVariant{{"none", nil}, {"ck=25 local", local}, {"ck=25 repl", replicated}} {
		for outages := 1; outages <= 2; outages++ {
			simCfg := simulator.MustConfigFor("PAM", matrix)
			simCfg.Checkpoint = v.p
			cp := ClusterPoint{DCs: 3, Route: "pet-aware", Scenario: clusterOutageScenario(3, outages)}
			trials, err := o.RunClusterPoint(matrix, wcfg, simCfg, cp)
			if err != nil {
				return nil, fmt.Errorf("checkpoint 3DC/%s/%d outages: %w", v.label, outages, err)
			}
			fig.Points = append(fig.Points, NewPoint("3DC "+v.label, fmt.Sprintf("%d outages", outages), trials))
		}
	}
	return fig, nil
}
