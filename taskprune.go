// Package taskprune is the public API of a reproduction of "Robust Dynamic
// Resource Allocation via Probabilistic Task Pruning in Heterogeneous
// Computing Systems" (Gentry, Denninnart, Amini Salehi; IPDPS Workshops
// 2019, arXiv:1901.09312).
//
// The library simulates an oversubscribed heterogeneous computing system in
// which deadline-constrained tasks are mapped in batches onto machines with
// bounded FCFS queues, and implements the paper's probabilistic pruning
// mechanism (task deferring + dynamic task dropping) together with the PAM
// and PAMF mapping heuristics and the MM/MSD/MMU/MOC baselines.
//
// # Quick start
//
//	matrix := taskprune.SPECPET()
//	cfg := taskprune.MustConfigFor("PAM", matrix)
//	rng := taskprune.NewRNG(42)
//	tasks := taskprune.MustGenerateWorkload(taskprune.WorkloadConfig{
//		NumTasks: 800,
//		Rate:     taskprune.RateForLevel(taskprune.Level34k),
//		VarFrac:  0.10,
//		Beta:     2.0,
//	}, matrix, rng)
//	sim, _ := taskprune.NewSimulator(cfg)
//	stats, _ := sim.Run(tasks)
//	fmt.Printf("robustness: %.1f%%\n", stats.RobustnessPct)
//
// The subpackages under internal/ contain the substrates (PMF algebra,
// PET profiling, the event-driven engine, the experiment harness); this
// package re-exports what the examples under examples/ and the README's
// snippets use. The hcsim command drives everything else: the paper's
// figures, the multi-datacenter cluster and the scheduling daemon.
//
// # Performance model
//
// Every mapping decision reduces to PMF convolutions, and the engine is
// built so that the steady state performs essentially none of them on the
// heap:
//
//   - Each simulator owns a PMF arena (internal/pmf.Arena): a bump
//     allocator over pooled blocks that hands out every intermediate
//     distribution of a mapping event — queue tails, pruning chains,
//     commit convolutions — and reclaims them wholesale when the event
//     ends. Arena-backed PMFs are scratch: code inside the engine must
//     never retain one across an event boundary without copying it first
//     (pmf.PMF.CopyFrom exists for exactly that). The arena's
//     zero-allocation steady state is pinned by a testing.AllocsPerRun
//     guard.
//
//   - Phase-one mapping evaluations are cached per (task, machine) and
//     keyed by a per-machine tail stamp: committing an assignment bumps
//     exactly one machine's stamp, so each commit round invalidates one
//     column instead of the whole table, and a cross-event tail memo keeps
//     stamps (and thus cached evaluations) alive while a machine's queue
//     and conditioned head distribution are unchanged. PAM, PAMF and MOC
//     also skip, without evaluating, every machine whose success bound
//     cannot reach the task's defer or culling threshold; the bound reads
//     a four-group summary of the machine's tail (pmf.SuccessBound), one
//     profile lookup per group. The simulator's NaiveEval option disables
//     all of it; the equivalence tests assert the decision traces are
//     byte-identical either way.
//
//   - Arrivals are pull-based: the simulator's RunSource drains a
//     workload.Source, pulling each task only when the event horizon
//     reaches it, counting every exit in streaming metrics, and recycling
//     retired tasks (and their TrueExec arrays) through a pool. Trial
//     memory is O(live tasks + fleet), so million-task — or unbounded —
//     streams run in the footprint of an 800-task trial. The replay-mode
//     source (workload.NewSource) reproduces MustGenerateWorkload's slices
//     byte for byte; the pure streaming source (workload.NewStream) trades
//     that compatibility for constant memory at any scale. Both take
//     arrival-rate shapes (StepRate, RampRate, DiurnalRate).
//
//   - Monte Carlo trials fan out over a fixed worker pool; trial k's RNG
//     seed depends only on (base seed, k), so results are reproducible
//     under any worker count.
package taskprune

import (
	"taskprune/internal/experiments"
	"taskprune/internal/pet"
	"taskprune/internal/scenario"
	"taskprune/internal/simulator"
	"taskprune/internal/stats"
	"taskprune/internal/trace"
	"taskprune/internal/workload"
)

type (
	// WorkloadConfig parameterizes workload generation.
	WorkloadConfig = workload.Config
	// Burst is an arrival-rate burst window.
	Burst = workload.Burst
)

// RequeueOnFailure returns a failed machine's tasks to the batch queue
// (the policy argument of a scenario's FailAt).
const RequeueOnFailure = scenario.Requeue

// Level34k is the paper's extreme oversubscription level, about three
// times the SPEC fleet's service capacity.
const Level34k = workload.Level34k

var (
	// NewRNG returns a seeded deterministic random source.
	NewRNG = stats.NewRNG
	// NewSimulator validates a simulator configuration and builds a
	// simulator.
	NewSimulator = simulator.New
	// MustConfigFor returns the paper's evaluation configuration for a
	// named heuristic ("PAM", "PAMF", "MOC", "MM", "MSD", "MMU"); it panics
	// on an unknown name.
	MustConfigFor = simulator.MustConfigFor
	// MustGenerateWorkload synthesizes one workload trial; it panics on an
	// invalid configuration.
	MustGenerateWorkload = workload.MustGenerate
	// RateForLevel converts a paper-style oversubscription level into an
	// arrival rate (tasks per tick).
	RateForLevel = workload.RateForLevel
	// StepRate, RampRate, and DiurnalRate build arrival-rate shapes for
	// WorkloadConfig.RateFn.
	StepRate    = workload.StepRate
	RampRate    = workload.RampRate
	DiurnalRate = workload.DiurnalRate
	// SPECPET returns the shared main-evaluation PET matrix.
	SPECPET = experiments.SPECPET
	// BuildPET profiles a PET matrix from a mean execution-time matrix.
	BuildPET = pet.Build
	// DefaultPETBuildConfig mirrors the paper's profiling setup.
	DefaultPETBuildConfig = pet.DefaultBuildConfig
	// ReadPETJSON loads a PET matrix serialized with its WriteJSON method.
	ReadPETJSON = pet.ReadJSON
	// WriteWorkloadCSV serializes a workload for replay.
	WriteWorkloadCSV = workload.WriteCSV
	// ReadWorkloadCSV parses a workload trace written by WriteWorkloadCSV.
	ReadWorkloadCSV = workload.ReadCSV
	// NewTraceRecorder returns an unbounded simulator trace recorder.
	NewTraceRecorder = trace.NewRecorder
	// NewScenario returns an empty named fleet scenario for the builder
	// methods (FailAt, RecoverAt, DegradeAt, BurstWindow, StartDown).
	NewScenario = scenario.New
)
