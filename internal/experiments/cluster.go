package experiments

import (
	"fmt"

	"taskprune/internal/cluster"
	"taskprune/internal/metrics"
	"taskprune/internal/pet"
	"taskprune/internal/scenario"
	"taskprune/internal/simulator"
	"taskprune/internal/workload"
)

// This file evaluates the multi-datacenter sharding layer: the paper's
// system is one batch queue over one fleet, and the cluster engine shards
// it behind a front-end dispatcher. The headline study asks the
// availability question sharding exists to answer — how much robustness
// survives losing whole datacenters, and how the answer moves with the
// shard count.

// ClusterPoint describes one sharded configuration for RunClusterPoint.
type ClusterPoint struct {
	// DCs is the datacenter count (the PET fleet partitions contiguously).
	DCs int
	// Route names the dispatch policy (cluster.NewPolicy); "" means
	// round-robin. A fresh policy instance is built per trial — policies
	// carry per-engine state, so sharing one across parallel trials would
	// break worker-count determinism.
	Route string
	// Scenario may mix machine-scoped churn with dc-fail/dc-recover
	// outages; its burst windows shape the workload exactly as in
	// single-fleet runs.
	Scenario *scenario.Scenario
}

// RunClusterPoint is RunPoint for a sharded system: Trials independent
// workload trials of one cluster configuration, each trial owning its
// engine, per-DC simulators, policy instance, and source end to end.
// Returned statistics are the cluster-level aggregates in trial order;
// determinism per (seed, trial) holds under any worker count.
func (o Options) RunClusterPoint(matrix *pet.Matrix, wcfg workload.Config, simCfg simulator.Config, cp ClusterPoint) ([]metrics.TrialStats, error) {
	route := cp.Route
	if route == "" {
		route = "round-robin"
	}
	simCfg.Scenario = cp.Scenario
	cp.Scenario.ApplyBursts(&wcfg)
	return o.runTrials(func(trial int) (metrics.TrialStats, error) {
		policy, err := cluster.NewPolicy(route)
		if err != nil {
			return metrics.TrialStats{}, err
		}
		eng, err := cluster.New(cluster.Config{DCs: cp.DCs, Policy: policy, Sim: simCfg})
		if err != nil {
			return metrics.TrialStats{}, err
		}
		src, err := o.source(trial, wcfg, matrix)
		if err != nil {
			return metrics.TrialStats{}, err
		}
		st, _, err := eng.RunSource(src)
		return st, err
	})
}

// clusterOutageScenario builds the canned whole-DC outage schedule for the
// fault-tolerance study: outage k takes datacenter k mod nDCs down at tick
// 1200 + 1200·k and brings it back 1000 ticks later, so outages are
// staggered (the cluster is never fully dark with outages < nDCs). Tasks
// of a dead datacenter fail over to the survivors. The ticks are
// calibrated to the ≈4100-tick span of an 800-task trial at the 19k level.
func clusterOutageScenario(nDCs, outages int) *scenario.Scenario {
	if outages == 0 {
		return nil
	}
	sc := scenario.New(fmt.Sprintf("%d-dc-outages-%d", nDCs, outages))
	for k := 0; k < outages; k++ {
		fail := int64(1200 + 1200*k)
		sc.DCFailAt(fail, k%nDCs, scenario.Requeue)
		sc.DCRecoverAt(fail+1000, k%nDCs)
	}
	return sc
}

// ClusterFaultTolerance sweeps robustness against datacenter count and
// whole-DC outage count at the 19k level under PAM with PET-aware
// routing: series are shard counts, x-positions are how many staggered
// dc-fail/dc-recover cycles the trial suffers. The interesting read is
// how gracefully robustness degrades as outages mount — failover requeues
// every drained task through the dispatcher, so survivors absorb the dead
// shard's load at the price of their own headroom — and whether more,
// smaller shards beat fewer, bigger ones under the same outage schedule.
func ClusterFaultTolerance(o Options) (*Figure, error) {
	matrix := SPECPET()
	wcfg := o.workloadConfig(workload.Level19k)
	fig := &Figure{
		Name:    "ClusterFault",
		Caption: "robustness @19k: PAM, pet-aware routing — datacenter count vs whole-DC outages (failover requeue)",
	}
	for _, nDCs := range []int{2, 4} {
		for outages := 0; outages <= 2; outages++ {
			simCfg := simulator.MustConfigFor("PAM", matrix)
			cp := ClusterPoint{DCs: nDCs, Route: "pet-aware", Scenario: clusterOutageScenario(nDCs, outages)}
			trials, err := o.RunClusterPoint(matrix, wcfg, simCfg, cp)
			if err != nil {
				return nil, fmt.Errorf("cluster-fault %dDC/%d outages: %w", nDCs, outages, err)
			}
			fig.Points = append(fig.Points, NewPoint(fmt.Sprintf("%dDC", nDCs), fmt.Sprintf("%d outages", outages), trials))
		}
	}
	return fig, nil
}
