package cluster

import "taskprune/internal/task"

// Policy routes each dispatched task to a datacenter. Pick sees the full
// DC slice — dead datacenters included, which it must skip — and returns
// the index of an alive one; the engine only calls it when at least one DC
// is alive. Policies must be deterministic: an identical sequence of Pick
// calls over identical cluster states yields identical picks, which is
// what keeps sharded replays byte-identical. A policy instance belongs to
// one engine (round-robin carries a cursor); build a fresh one per trial.
type Policy interface {
	// Name returns the short label used in flags and figures.
	Name() string
	// Pick chooses an alive datacenter for t at the given dispatch tick
	// (the task's arrival, or the dc-fail tick during failover).
	Pick(now int64, t *task.Task, dcs []*DC) int
}

// NewPolicy builds a dispatch policy by name: "rr"/"round-robin",
// "lq"/"least-queued", or "pet"/"pet-aware".
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "rr", "round-robin":
		return &RoundRobin{}, nil
	case "lq", "least-queued":
		return LeastQueued{}, nil
	case "pet", "pet-aware":
		return PETAware{}, nil
	default:
		return nil, errUnknownPolicy(name)
	}
}

// PolicyNames lists the canonical dispatch-policy names.
func PolicyNames() []string { return []string{"round-robin", "least-queued", "pet-aware"} }

// RoundRobin cycles through the alive datacenters in index order, skipping
// dead ones; with a single DC it degenerates to "always DC 0", which is
// what makes a 1-DC cluster byte-identical to the single-fleet engine.
type RoundRobin struct {
	next int
}

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (p *RoundRobin) Pick(now int64, t *task.Task, dcs []*DC) int {
	n := len(dcs)
	for i := 0; i < n; i++ {
		d := (p.next + i) % n
		if dcs[d].Alive() {
			p.next = (d + 1) % n
			return d
		}
	}
	return -1
}

// LeastQueued routes to the alive datacenter holding the fewest tasks
// (batch queue plus every machine queue, executing included); ties break
// toward the lowest index.
type LeastQueued struct{}

// Name implements Policy.
func (LeastQueued) Name() string { return "least-queued" }

// Pick implements Policy.
func (LeastQueued) Pick(now int64, t *task.Task, dcs []*DC) int {
	best, bestLoad := -1, 0
	for i, d := range dcs {
		if !d.Alive() {
			continue
		}
		load := d.QueuedLoad()
		if best == -1 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// PETAware scores each alive datacenter by the probability its best
// machine completes the task on time: a machine's expected start is its
// ExpectedReady (queue backlog under current degradation factors), and the
// on-time probability is its scaled execution profile's CDF at the
// remaining slack — the same pet.Matrix/PMF machinery the mapping
// heuristics evaluate with. Per machine that is one walk of the executing
// task's sparse PET index, one stored profile mean per queued task and
// one O(1) prefix-sum lookup: O(machines × (impulses + queue length)) per
// arrival, with a dense scan of the executing task's PMF only where it has
// no index (degraded machines, learned belief cells). Dispatch stays
// allocation-free. Ties break toward the lighter queue, then the lower
// index.
type PETAware struct{}

// Name implements Policy.
func (PETAware) Name() string { return "pet-aware" }

// Pick implements Policy.
func (PETAware) Pick(now int64, t *task.Task, dcs []*DC) int {
	best, bestScore, bestLoad := -1, 0.0, 0
	for i, d := range dcs {
		if !d.Alive() {
			continue
		}
		score := d.onTimeScore(now, t)
		load := d.QueuedLoad()
		if best == -1 || score > bestScore || (score == bestScore && load < bestLoad) {
			best, bestScore, bestLoad = i, score, load
		}
	}
	return best
}
