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
// package re-exports the surface a downstream user needs.
//
// # Performance model
//
// Every mapping decision reduces to PMF convolutions, and the engine is
// built so that the steady state performs essentially none of them on the
// heap:
//
//   - Each Simulator owns a PMF arena (internal/pmf.Arena): a bump
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
//     and conditioned head distribution are unchanged. PAM and PAMF also
//     skip, without evaluating, every machine whose O(1) success bound
//     cannot reach the task's defer threshold. SimConfig.NaiveEval
//     disables all of it; the equivalence tests assert the decision traces
//     are byte-identical either way.
//
//   - Arrivals are pull-based: Simulator.RunSource drains a
//     WorkloadSource, pulling each task only when the event horizon
//     reaches it, counting every exit in streaming metrics, and recycling
//     retired tasks (and their TrueExec arrays) through a pool. Trial
//     memory is O(live tasks + fleet), so million-task — or unbounded —
//     streams run in the footprint of an 800-task trial. The replay-mode
//     source (NewWorkloadSource) reproduces GenerateWorkload's slices byte
//     for byte; the pure streaming source (NewWorkloadStream) trades that
//     compatibility for constant memory at any scale, with pluggable
//     arrival-rate shapes (StepRate, RampRate, DiurnalRate).
//
//   - Monte Carlo trials fan out over a fixed worker pool; trial k's RNG
//     seed depends only on (base seed, k), so results are reproducible
//     under any worker count.
package taskprune

import (
	"taskprune/internal/cluster"
	"taskprune/internal/experiments"
	"taskprune/internal/heuristics"
	"taskprune/internal/metrics"
	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/pruner"
	"taskprune/internal/scenario"
	"taskprune/internal/server"
	"taskprune/internal/simulator"
	"taskprune/internal/stats"
	"taskprune/internal/task"
	"taskprune/internal/telemetry"
	"taskprune/internal/trace"
	"taskprune/internal/workload"
)

// Core model types.
type (
	// PMF is a discrete probability mass function over integer time ticks.
	PMF = pmf.PMF
	// DropMode selects the paper's completion-time scenario (A/B/C).
	DropMode = pmf.DropMode
	// Task is one deadline-constrained request.
	Task = task.Task
	// TaskType indexes a PET matrix row.
	TaskType = task.Type
	// PETMatrix is the Probabilistic Execution Time matrix.
	PETMatrix = pet.Matrix
	// PETBuildConfig controls offline PET profiling.
	PETBuildConfig = pet.BuildConfig
	// RNG is the deterministic random source used everywhere.
	RNG = stats.RNG
)

// Dropping scenarios (paper Section IV).
const (
	NoDrop      = pmf.NoDrop
	PendingDrop = pmf.PendingDrop
	Evict       = pmf.Evict
)

// Simulation and policy types.
type (
	// Simulator runs one trial of the HC system.
	Simulator = simulator.Simulator
	// SimConfig assembles a simulated system.
	SimConfig = simulator.Config
	// Heuristic is a batch mapping policy.
	Heuristic = heuristics.Heuristic
	// PrunerConfig holds the pruning-policy knobs.
	PrunerConfig = pruner.Config
	// TrialStats summarizes one trial.
	TrialStats = metrics.TrialStats
	// WorkloadConfig parameterizes workload generation.
	WorkloadConfig = workload.Config
	// WorkloadSource is a pull-based arrival stream for Simulator.RunSource.
	WorkloadSource = workload.Source
	// WorkloadStream is the lazy k-way-merged arrival engine behind both
	// the replay-mode and constant-memory streaming sources.
	WorkloadStream = workload.Stream
	// RateFunc shapes arrival rates over time (steps, ramps, diurnal
	// cycles) for streamed workloads.
	RateFunc = workload.RateFunc
	// ExperimentOptions controls figure regeneration scale.
	ExperimentOptions = experiments.Options
	// Figure is a regenerated paper figure.
	Figure = experiments.Figure
	// TraceRecorder records the simulator's decision stream.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded simulator decision.
	TraceEvent = trace.Event
	// Scenario declares dynamic fleet events (failures, recoveries,
	// degradations) and arrival bursts for a trial.
	Scenario = scenario.Scenario
	// ScenarioEvent is one timed fleet change.
	ScenarioEvent = scenario.Event
	// Burst is an arrival-rate burst window.
	Burst = workload.Burst
	// ClusterConfig assembles a multi-datacenter sharded system: the PET
	// fleet partitions into per-DC batch queues behind a front-end
	// dispatcher.
	ClusterConfig = cluster.Config
	// ClusterEngine drives one sharded trial across per-DC simulators.
	ClusterEngine = cluster.Engine
	// Datacenter is one fleet partition of a cluster.
	Datacenter = cluster.DC
	// DispatchPolicy routes arriving tasks to datacenters.
	DispatchPolicy = cluster.Policy
	// CheckpointPolicy declares whether (and how often) tasks persist
	// execution progress, what each checkpoint costs, and whether
	// checkpoints survive a whole-DC outage.
	CheckpointPolicy = scenario.CheckpointPolicy
	// BeliefPolicy declares what the mapper believes about execution
	// times: the oracle truth, a view frozen at t=0, or an online
	// re-estimate rebuilt from observed completions.
	BeliefPolicy = scenario.BeliefPolicy
	// FailoverPolicy declares how the cluster dispatcher detects
	// whole-DC outages (oracle vs heartbeat monitoring), how bounced
	// dispatches retry, and whether arrivals buffer at the gate while
	// no datacenter is believed healthy.
	FailoverPolicy = scenario.FailoverPolicy
	// PETView is the read surface every mapping decision goes through; a
	// *PETMatrix is the oracle view, and belief policies substitute
	// imperfect ones.
	PETView = pet.View
	// TelemetryOptions enables a simulator's (or cluster's) probe
	// registry and time-series sampler; leave the config field nil and
	// every probe compiles down to a nil-receiver no-op.
	TelemetryOptions = telemetry.Options
	// TelemetryRegistry is a shard of named counters/gauges/histograms.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySampler snapshots a registry into time-series rows on the
	// simulated clock.
	TelemetrySampler = telemetry.Sampler
	// PhaseTimer aggregates wall-clock spans per scheduler phase
	// (dispatch/admit/step/eval/convolve).
	PhaseTimer = telemetry.PhaseTimer
	// TelemetryServer is the live HTTP export surface (Prometheus text,
	// JSON snapshots, pprof).
	TelemetryServer = telemetry.Server
	// ServeConfig is the persistent `hcsim serve` deployment
	// configuration: fleet, heuristic, route, queue capacity, what-if
	// window, and an optional nested Scenario, round-tripping through
	// JSON with boot-time validation.
	ServeConfig = server.Config
	// ServeFleet selects a deployment's PET matrix ("spec", "video", or
	// a seeded "synthetic" Types×Machines fleet).
	ServeFleet = server.Fleet
	// Daemon is the long-running scheduling daemon behind `hcsim serve`:
	// live HTTP submission, status/metrics export, what-if replays, and
	// graceful drain over one continuously-stepping cluster engine.
	Daemon = server.Server
	// LiveSource is the bounded push side of the daemon: submissions
	// enter via Push (ErrSourceFull = backpressure) and leave through
	// the pull-based WorkloadSource interface.
	LiveSource = workload.LiveSource
)

// Failure policies for scenario machine failures.
const (
	// RequeueOnFailure returns a failed machine's tasks to the batch queue.
	RequeueOnFailure = scenario.Requeue
	// DropOnFailure exits a failed machine's tasks as dropped.
	DropOnFailure = scenario.Drop
)

// Checkpoint kinds and survival modes (CheckpointPolicy fields).
const (
	// CheckpointNone disables checkpointing (failures lose all progress).
	CheckpointNone = scenario.CheckpointNone
	// CheckpointPeriodic checkpoints every Interval nominal ticks of
	// progress, each costing Overhead wall ticks.
	CheckpointPeriodic = scenario.CheckpointPeriodic
	// CheckpointOnPreempt checkpoints only at preemption pauses.
	CheckpointOnPreempt = scenario.CheckpointOnPreempt
	// SurviveLocal keeps checkpoints on DC-local storage: they die with
	// the datacenter in a dc-fail.
	SurviveLocal = scenario.SurviveLocal
	// SurviveReplicated replicates checkpoints across datacenters: a
	// dc-fail failover resumes from the last checkpoint minus the
	// replication lag.
	SurviveReplicated = scenario.SurviveReplicated
)

// Belief kinds (BeliefPolicy.Kind): what PET view drives the mapper.
const (
	// BeliefOracle schedules on the ground truth (the pre-split behavior,
	// byte-identical to no policy at all).
	BeliefOracle = scenario.BeliefOracle
	// BeliefFrozen pins the mapper's view at the t=0 truth while
	// degradation events move the real fleet underneath it.
	BeliefFrozen = scenario.BeliefFrozen
	// BeliefOnline rebuilds per-(type, machine) PMFs from observed
	// completion times, at a configurable refresh cadence past a
	// minimum-sample floor.
	BeliefOnline = scenario.BeliefOnline
)

// Failover kinds and gate-buffer shedding policies (FailoverPolicy
// fields).
const (
	// FailoverOracle detects outages instantly and perfectly (the
	// pre-detection behavior, byte-identical to no policy at all).
	FailoverOracle = scenario.FailoverOracle
	// FailoverHeartbeat detects an outage only after SuspectAfter
	// consecutive missed heartbeats; dispatches keep flowing into the
	// dead datacenter until then.
	FailoverHeartbeat = scenario.FailoverHeartbeat
	// ShedDropNewest refuses the incoming task when the gate buffer
	// overflows.
	ShedDropNewest = scenario.ShedDropNewest
	// ShedDropOldest evicts the buffer head when the gate buffer
	// overflows.
	ShedDropOldest = scenario.ShedDropOldest
	// ShedDeadlineAware evicts the buffered task with the earliest
	// deadline — the one least likely to survive the wait.
	ShedDeadlineAware = scenario.ShedDeadlineAware
)

// Constructors and helpers re-exported from the internal packages.
var (
	// NewRNG returns a seeded deterministic random source.
	NewRNG = stats.NewRNG
	// NewSimulator validates a SimConfig and builds a Simulator.
	NewSimulator = simulator.New
	// ConfigFor returns the paper's evaluation configuration for a named
	// heuristic ("PAM", "PAMF", "MOC", "MM", "MSD", "MMU").
	ConfigFor = simulator.ConfigFor
	// MustConfigFor is ConfigFor for known-good names.
	MustConfigFor = simulator.MustConfigFor
	// NewHeuristic constructs a mapping heuristic by name.
	NewHeuristic = heuristics.New
	// HeuristicNames lists the available heuristics.
	HeuristicNames = heuristics.AllNames
	// DefaultPrunerConfig returns the paper's converged pruning knobs.
	DefaultPrunerConfig = pruner.DefaultConfig
	// GenerateWorkload synthesizes one workload trial.
	GenerateWorkload = workload.Generate
	// MustGenerateWorkload is GenerateWorkload for known-good configs.
	MustGenerateWorkload = workload.MustGenerate
	// NewWorkloadSource builds the replay-mode streaming source: pull-based
	// but byte-identical to GenerateWorkload's slices at equal seeds.
	NewWorkloadSource = workload.NewSource
	// NewWorkloadStream builds the constant-memory streaming source for
	// unbounded (or million-task) trials; NumTasks 0 streams forever.
	NewWorkloadStream = workload.NewStream
	// WorkloadFromTasks adapts a task slice to the Source interface.
	WorkloadFromTasks = workload.FromTasks
	// StepRate, RampRate, and DiurnalRate build arrival-rate shapes for
	// WorkloadConfig.RateFn.
	StepRate    = workload.StepRate
	RampRate    = workload.RampRate
	DiurnalRate = workload.DiurnalRate
	// RateForLevel converts a paper-style oversubscription level into an
	// arrival rate (tasks per tick).
	RateForLevel = workload.RateForLevel
	// VideoRateForLevel is RateForLevel for the Fig. 9 video system.
	VideoRateForLevel = workload.VideoRateForLevel
	// BuildPET profiles a PET matrix from a mean execution-time matrix.
	BuildPET = pet.Build
	// DefaultPETBuildConfig mirrors the paper's profiling setup.
	DefaultPETBuildConfig = pet.DefaultBuildConfig
	// SPECLikeMeans returns the 12×8 main-workload mean matrix.
	SPECLikeMeans = pet.SPECLikeMeans
	// SyntheticMeans generalizes the SPEC-like generator to any
	// Types×Machines fleet at any seed (SPECLikeMeans is
	// SyntheticMeans(12, 8, 0x5EC1), byte for byte).
	SyntheticMeans = pet.SyntheticMeans
	// VideoMeans returns the 4×4 video-workload mean matrix.
	VideoMeans = pet.VideoMeans
	// SPECPET returns the shared main-evaluation PET matrix.
	SPECPET = experiments.SPECPET
	// VideoPET returns the shared video-workload PET matrix.
	VideoPET = experiments.VideoPET
	// DefaultExperimentOptions mirrors the paper's 30-trial scale.
	DefaultExperimentOptions = experiments.DefaultOptions
	// QuickExperimentOptions is a reduced profile for smoke runs.
	QuickExperimentOptions = experiments.QuickOptions
	// NewTraceRecorder returns an unbounded simulator trace recorder.
	NewTraceRecorder = trace.NewRecorder
	// NewRingTraceRecorder keeps only the most recent N trace events.
	NewRingTraceRecorder = trace.NewRingRecorder
	// ReadPETJSON loads a PET matrix serialized with PETMatrix.WriteJSON.
	ReadPETJSON = pet.ReadJSON
	// WriteWorkloadCSV serializes a workload for replay.
	WriteWorkloadCSV = workload.WriteCSV
	// ReadWorkloadCSV parses a workload trace in wlgen's CSV schema.
	ReadWorkloadCSV = workload.ReadCSV
	// NewScenario returns an empty named fleet scenario for the builder
	// methods (FailAt, RecoverAt, DegradeAt, BurstWindow, StartDown).
	NewScenario = scenario.New
	// ParseScenario reads a JSON fleet scenario.
	ParseScenario = scenario.Parse
	// LoadScenario parses the JSON fleet-scenario file at a path.
	LoadScenario = scenario.Load
	// NewDaemon builds the scheduling daemon from a validated
	// ServeConfig; Start launches the pump, Serve binds the HTTP API,
	// Drain shuts down gracefully.
	NewDaemon = server.New
	// ParseServeConfig reads a JSON deployment config (unknown fields
	// rejected, defaults applied).
	ParseServeConfig = server.ParseConfig
	// LoadServeConfig parses and validates the deployment config file at
	// a path — the `hcsim serve -config` boot path.
	LoadServeConfig = server.LoadConfig
	// NewLiveSource builds the bounded live-submission source bridging
	// pushed tasks into a pull-based engine run.
	NewLiveSource = workload.NewLiveSource
	// FaultScenario is the canned mid-trial churn used by the scen-fault
	// experiment.
	FaultScenario = experiments.FaultScenario
	// NewCluster partitions the fleet into datacenters and builds the
	// sharded engine.
	NewCluster = cluster.New
	// NewDispatchPolicy builds a routing policy by name ("round-robin",
	// "least-queued", "pet-aware").
	NewDispatchPolicy = cluster.NewPolicy
	// DispatchPolicyNames lists the canonical routing-policy names.
	DispatchPolicyNames = cluster.PolicyNames
	// NewPhaseTimer builds a phase timer for SimConfig.PhaseTimer (or
	// ClusterConfig.Phases-driven per-DC timers).
	NewPhaseTimer = telemetry.NewPhaseTimer
	// NewTelemetryServer builds the live HTTP metrics surface; publish
	// shard snapshots into it from a sampler's OnSample hook.
	NewTelemetryServer = telemetry.NewServer
)

// Oversubscription level labels used by the paper's figures.
const (
	Level10k  = workload.Level10k
	Level12k5 = workload.Level12k5
	Level15k  = workload.Level15k
	Level17k5 = workload.Level17k5
	Level19k  = workload.Level19k
	Level34k  = workload.Level34k
)
