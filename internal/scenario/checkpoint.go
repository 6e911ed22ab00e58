package scenario

// This file declares the checkpoint/restore policy: whether (and how often)
// tasks persist their execution progress, what each checkpoint costs in
// wall-clock overhead, and whether a checkpoint survives the loss of a whole
// datacenter. The policy is part of the scenario wire format so fault
// studies can declare recovery behaviour next to the failures it answers —
// the paper's robustness metric charges a failed machine's in-flight tasks
// their full cost, and this knob quantifies how much of that price
// checkpointing buys back.
//
// Progress is measured in *nominal* execution ticks (the machine-independent
// credit task.Task.Consumed carries): a checkpoint written on one machine
// restores on any other. Checkpoint overhead, by contrast, is wall-clock
// ticks spent on the executing machine per checkpoint written.

import "fmt"

// CheckpointKind selects when checkpoints are written.
type CheckpointKind int

const (
	// CheckpointNone disables checkpointing: a failure loses all progress
	// (requeue resets Consumed to zero), byte-identical to the engine
	// without the subsystem.
	CheckpointNone CheckpointKind = iota
	// CheckpointPeriodic writes a checkpoint every Interval nominal ticks
	// of execution progress, each costing Overhead wall ticks. A failed
	// task restores at its last *completed* checkpoint — progress past it,
	// and a checkpoint still being written, are lost.
	CheckpointPeriodic
)

// String implements fmt.Stringer.
func (k CheckpointKind) String() string {
	switch k {
	case CheckpointNone:
		return "none"
	case CheckpointPeriodic:
		return "periodic"
	default:
		return fmt.Sprintf("CheckpointKind(%d)", int(k))
	}
}

// SurvivalMode selects whether checkpoints outlive a whole-datacenter
// outage (the cluster engine's dc-fail).
type SurvivalMode int

const (
	// SurviveLocal stores checkpoints on datacenter-local storage: they
	// survive single-machine failures (the DC's storage keeps them) but die
	// with the datacenter — a dc-fail failover restarts its tasks from
	// zero.
	SurviveLocal SurvivalMode = iota
	// SurviveReplicated replicates checkpoints across datacenters: a
	// dc-fail failover resumes each task from its last checkpoint minus a
	// replication-lag penalty (the freshest ReplicationLag nominal ticks of
	// progress had not reached the surviving replicas yet).
	SurviveReplicated
)

// String implements fmt.Stringer.
func (m SurvivalMode) String() string {
	if m == SurviveReplicated {
		return "replicated"
	}
	return "local"
}

// CheckpointPolicy is the full checkpoint/restore specification. The zero
// value (and nil) disables checkpointing entirely.
type CheckpointPolicy struct {
	// Kind selects when checkpoints are written.
	Kind CheckpointKind
	// Interval is the nominal-progress spacing of periodic checkpoints
	// (CheckpointPeriodic only; must be positive).
	Interval int64
	// Overhead is the wall-clock ticks each periodic checkpoint costs on
	// the executing machine: a run that writes n checkpoints finishes
	// n×Overhead ticks later than it would unchecked. Zero models free
	// checkpoints.
	Overhead int64
	// Survival selects whether checkpoints outlive a whole-DC outage.
	Survival SurvivalMode
	// ReplicationLag is the nominal-progress penalty a replicated
	// checkpoint pays at dc-fail failover (SurviveReplicated only).
	ReplicationLag int64
}

// Enabled reports whether the policy writes interval checkpoints (nil-safe).
func (p *CheckpointPolicy) Enabled() bool { return p != nil && p.Kind == CheckpointPeriodic }

// Validate rejects malformed policies: a periodic policy needs a positive
// interval, overheads and lags cannot be negative, and interval/overhead
// are meaningless without periodic checkpointing (nil-safe).
func (p *CheckpointPolicy) Validate() error {
	if p == nil {
		return nil
	}
	switch p.Kind {
	case CheckpointNone, CheckpointPeriodic:
	default:
		return fmt.Errorf("checkpoint: unknown kind %d", int(p.Kind))
	}
	switch p.Survival {
	case SurviveLocal, SurviveReplicated:
	default:
		return fmt.Errorf("checkpoint: unknown survival mode %d", int(p.Survival))
	}
	if p.Kind == CheckpointPeriodic && p.Interval <= 0 {
		return fmt.Errorf("checkpoint: periodic policy needs a positive interval, got %d", p.Interval)
	}
	if p.Kind != CheckpointPeriodic && (p.Interval != 0 || p.Overhead != 0) {
		return fmt.Errorf("checkpoint: interval/overhead only apply to the periodic kind (got kind %s, interval %d, overhead %d)", p.Kind, p.Interval, p.Overhead)
	}
	if p.Overhead < 0 {
		return fmt.Errorf("checkpoint: negative overhead %d", p.Overhead)
	}
	if p.ReplicationLag < 0 {
		return fmt.Errorf("checkpoint: negative replication lag %d", p.ReplicationLag)
	}
	if p.Survival != SurviveReplicated && p.ReplicationLag != 0 {
		return fmt.Errorf("checkpoint: replication lag only applies to replicated survival, got %d under %s", p.ReplicationLag, p.Survival)
	}
	return nil
}

// PointsWithin counts the periodic checkpoint points a run crosses while
// advancing cumulative nominal progress from `from` (exclusive) to `total`
// (exclusive): checkpoints sit at every multiple of Interval, and one
// landing exactly at completion is never written — the task just finishes.
// Disabled policies cross none (nil-safe).
func (p *CheckpointPolicy) PointsWithin(from, total int64) int64 {
	if !p.Enabled() || total <= from {
		return 0
	}
	n := (total-1)/p.Interval - from/p.Interval
	if n < 0 {
		return 0
	}
	return n
}

// FailoverCredit returns the nominal progress credit that survives a
// whole-DC outage for a task whose locally banked (checkpointed) progress
// is banked. Local survival forfeits everything — the checkpoints lived on
// the dead datacenter's storage. Replicated survival pays the
// replication-lag penalty: the freshest ReplicationLag ticks of
// checkpointed progress had not reached the surviving replicas yet, so the
// task resumes that much further back (floored at zero; nil-safe; disabled
// policies carry no credit).
func (p *CheckpointPolicy) FailoverCredit(banked int64) int64 {
	if !p.Enabled() || p.Survival != SurviveReplicated {
		return 0
	}
	c := banked - p.ReplicationLag
	if c <= 0 {
		return 0
	}
	return c
}

// String renders the policy compactly for reports and errors.
func (p *CheckpointPolicy) String() string {
	if !p.Enabled() {
		return "checkpoint=none"
	}
	return fmt.Sprintf("checkpoint=every %d (+%d) %s", p.Interval, p.Overhead, p.Survival)
}

// jsonCheckpoint is the wire form of a CheckpointPolicy.
type jsonCheckpoint struct {
	Kind           string `json:"kind"`
	Interval       int64  `json:"interval,omitempty"`
	Overhead       int64  `json:"overhead,omitempty"`
	Survival       string `json:"survival,omitempty"`
	ReplicationLag int64  `json:"replication_lag,omitempty"`
}

// parseCheckpoint decodes the wire form, rejecting unknown kinds and
// survival modes as well as NaN-smuggling (the fields are integers, so the
// JSON layer already rejects non-numeric values).
func parseCheckpoint(jc *jsonCheckpoint) (*CheckpointPolicy, error) {
	if jc == nil {
		return nil, nil
	}
	p := &CheckpointPolicy{Interval: jc.Interval, Overhead: jc.Overhead, ReplicationLag: jc.ReplicationLag}
	switch jc.Kind {
	case "none":
		p.Kind = CheckpointNone
	case "periodic":
		p.Kind = CheckpointPeriodic
	default:
		return nil, fmt.Errorf("scenario: checkpoint has unknown kind %q", jc.Kind)
	}
	switch jc.Survival {
	case "", "local":
		p.Survival = SurviveLocal
	case "replicated":
		p.Survival = SurviveReplicated
	default:
		return nil, fmt.Errorf("scenario: checkpoint has unknown survival mode %q", jc.Survival)
	}
	return p, nil
}

// wireCheckpoint encodes the policy back into its wire form (nil for nil).
func wireCheckpoint(p *CheckpointPolicy) *jsonCheckpoint {
	if p == nil {
		return nil
	}
	return &jsonCheckpoint{
		Kind:           p.Kind.String(),
		Interval:       p.Interval,
		Overhead:       p.Overhead,
		Survival:       p.Survival.String(),
		ReplicationLag: p.ReplicationLag,
	}
}
