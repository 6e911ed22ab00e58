// Package heuristics implements the paper's six batch mapping heuristics:
// the baselines MM (MinCompletion-MinCompletion), MSD
// (MinCompletion-SoonestDeadline), MMU (MinCompletion-MaxUrgency) and MOC
// (Max Ontime Completions), plus the paper's contributions PAM
// (Pruning-Aware Mapper) and PAMF (Fair Pruning Mapper).
//
// All heuristics are two-phase batch mappers (Section V-D): phase one finds
// the best machine for every unmapped task by a per-heuristic objective;
// phase two repeatedly commits the best task-machine pair to that machine's
// (virtual) queue until machine queues are full or the batch is exhausted.
package heuristics

import (
	"fmt"
	"math"
	"slices"

	"taskprune/internal/machine"
	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/pruner"
	"taskprune/internal/task"
)

// Context is the system state a heuristic sees at one mapping event.
type Context struct {
	Now         int64
	Machines    []*machine.Machine
	PET         pet.View
	Mode        pmf.DropMode // governs completion-time convolution semantics
	MaxImpulses int          // PMF compaction bound (0 = none)

	// Pruner is consulted by pruning-aware heuristics for deferring
	// decisions; nil for baselines.
	Pruner *pruner.Pruner
	// Fairness supplies per-type sufferage values for PAMF; nil otherwise.
	Fairness *pruner.FairnessTracker

	// Arena, when non-nil, supplies scratch storage for every intermediate
	// PMF a mapping event builds. The caller (the simulator) resets it
	// between events; heuristics must not let arena-backed PMFs escape Map.
	Arena *pmf.Arena
	// Cache, when non-nil, carries the evaluation cache across mapping
	// events so its storage is reused instead of reallocated. A nil Cache
	// makes Map build a private one (tests, direct library use).
	Cache *EvalCache
	// NaiveEval disables the evaluation cache, the cross-event tail memo,
	// and phase one's success bound: every free machine's tail is rebuilt
	// from its queue at every event and every phase-one scalar is
	// recomputed for every free (task, machine) pair on every commit
	// round. Results are identical by construction (the equivalence tests
	// assert it); the only difference is O(rounds × tasks × machines) work
	// instead of O(tasks × machines + rounds × tasks), minus the pairs the
	// bound skips. Used by tests and ablations as the exhaustive oracle.
	NaiveEval bool
}

// sufferage returns the current sufferage for a task type, or 0 when no
// fairness tracking is active.
func (c *Context) sufferage(t task.Type) float64 {
	if c.Fairness == nil {
		return 0
	}
	return c.Fairness.Sufferage(t)
}

// entry returns the PET entry task t is priced at on the machine at fleet
// position mi: the type's entry under that machine's current speed factor,
// conditioned on the progress the task has already banked when it was
// restored from a checkpoint (t.Consumed > 0 in the batch queue). The PET
// column is the machine's ID, not its slice position: a cluster datacenter
// runs on a partition of the PET's columns, so its machines keep their
// global IDs while occupying positions 0..len(Machines)-1. On a
// whole-fleet run the two coincide, and for an unrestored task on a
// nominal-speed machine the result is exactly the PET entry, so the static
// single-fleet path is untouched.
func (c *Context) entry(t *task.Task, mi int) *pet.Entry {
	m := c.Machines[mi]
	return c.PET.Entry(t.Type, m.ID, m.Speed(), t.Consumed)
}

// Result reports what a mapping event did. When the Context carries a
// persistent Cache, the three slices are backed by per-trial scratch
// storage: they stay valid only until the next Map call sharing that cache,
// which is all the simulator's event loop needs and what keeps the
// steady-state mapping path allocation-free over unbounded task streams.
type Result struct {
	// Assigned tasks were enqueued onto machines (already committed).
	Assigned []*task.Task
	// Deferred tasks were considered but held back by the pruner; they
	// remain in the batch queue.
	Deferred []*task.Task
	// Culled tasks were removed from the system by the heuristic itself
	// (MOC's sub-threshold culling — the paper: tasks are "mapped or
	// dropped"). The simulator exits them as dropped.
	Culled []*task.Task
}

// Heuristic is a batch mapping policy.
type Heuristic interface {
	// Name returns the short label used in figures ("PAM", "MM", ...).
	Name() string
	// UsesPruning reports whether the simulator should run the dropping
	// stage of the pruning mechanism for this heuristic.
	UsesPruning() bool
	// Map assigns tasks from batch (all unexpired, unmapped) onto
	// ctx.Machines, enqueueing directly, and reports what happened.
	Map(ctx *Context, batch []*task.Task) Result
}

// New constructs a heuristic by figure label. Recognized names: MM, MSD,
// MMU, MOC, PAM, PAMF.
func New(name string) (Heuristic, error) {
	switch name {
	case "MM":
		return MM{}, nil
	case "MSD":
		return MSD{}, nil
	case "MMU":
		return MMU{}, nil
	case "MOC":
		return NewMOC(DefaultMOCThreshold), nil
	case "PAM":
		return PAM{}, nil
	case "PAMF":
		return PAMF{}, nil
	default:
		return nil, fmt.Errorf("heuristics: unknown heuristic %q", name)
	}
}

// AllNames lists every heuristic label in the order the paper's figures use.
func AllNames() []string { return []string{"PAM", "PAMF", "MOC", "MM", "MSD", "MMU"} }

// EvalCache is the incremental mapping-event cache behind the heuristics.
// It persists across mapping events (the simulator owns one per trial) so
// that the per-event working set — the list of free machines, machine tail
// PMFs or ready times, per-(task, machine) phase-one evaluations, and the
// phase-two pair scratch — reaches a steady state with no heap allocation.
//
// Correctness rests on one invariant: a cached evaluation of task t on
// machine m is valid exactly while m's queue version (machine.Version) is
// unchanged within the current event epoch. Committing an assignment
// enqueues onto exactly one machine, bumping its version and thereby
// invalidating only that machine's column; every other cached evaluation
// stays live. That turns the O(rounds × tasks × machines) convolution bill
// of a naive mapper into O(tasks × machines + rounds × tasks).
//
// A machine with no free slot (a dead one counts as full) takes no part in
// an event: it builds no tail, so its memo and stamp stay as they were.
// That is sound because a full machine regains a slot only through a
// change that bumps its version (a finish, a removal, a recovery), so its
// next tailFor misses and advances the stamp. A stale machine that the
// stale rule rules out (staleRuleOn) builds no tail either: it stays in
// the event's open list, but with the empty tail's bound, which every
// batch task's defer floor lies above, so phase one skips it for every
// task without an evaluation, and its memo and stamp stay as they were.
type EvalCache struct {
	open   []int              // this event's machines with a free slot, in index order
	tails  []*pmf.PMF         // per-machine queue-tail free-time PMFs for this event
	bounds []pmf.SuccessBound // per-machine summaries of tails for phase one's skip test

	// stamps[i] counts actual changes of machine i's tail distribution. A
	// cached evaluation is valid while its stamp matches: commits bump the
	// committed machine's stamp (one column), and between events the stamp
	// moves only when the tail memo below is rebuilt or carried across a
	// start — so evaluations survive whole stretches of mapping events
	// during which a machine's queue and conditioned head distribution are
	// unchanged. A machine the stale rule rules out keeps its stamp: it is
	// evaluated again only after a rebuild, which advances it.
	stamps []uint64
	memo   []tailMemo

	// probe is this event's stale-rule sample of the batch (buildProbe),
	// built when the first stale machine is tested; probed says it is.
	// repOf is its per-type index scratch, -1 where a type has no entry.
	probe  []probeTask
	probed bool
	repOf  []int

	evals map[int]*taskEval
	free  []*taskEval // recycled taskEval records

	// hits/misses count phase-one evaluation lookups served from (or
	// missing) the cache — plain counters the simulator's telemetry
	// counters read, so the hot path stays free of probe handles.
	hits   int64
	misses int64

	// Scratch reused by the mapping loops.
	ready     []float64 // scalarState expected-ready times
	pairs     []pamPair
	mpairs    []mocPair
	remaining []*task.Task
	deferred  map[int]bool
	// Result backing slices, recycled across Map calls (see Result).
	assigned    []*task.Task
	deferredOut []*task.Task
	culled      []*task.Task
	// ps is the per-event probState, reused so Map allocates nothing for it.
	ps probState
}

// newResult returns a Result whose slices reuse c's scratch storage (empty
// but with the previous events' capacity); with a nil cache the slices
// start nil and grow on the heap as before.
func (c *EvalCache) newResult() Result {
	if c == nil {
		return Result{}
	}
	return Result{Assigned: c.assigned[:0], Deferred: c.deferredOut[:0], Culled: c.culled[:0]}
}

// keepResult stores a Result's (possibly regrown) backing slices back into
// the cache for the next event.
func (c *EvalCache) keepResult(out *Result) {
	if c == nil {
		return
	}
	c.assigned = out.Assigned
	c.deferredOut = out.Deferred
	c.culled = out.Culled
}

// tailMemo caches one machine's last computed queue-tail PMF across
// mapping events. The key pair (ver, key) pins everything the tail depends
// on: ver is the machine's queue version; key captures how the executing
// task's completion distribution is conditioned on the current clock — the
// tick of its first still-possible completion impulse, or −now once the
// chain head collapses onto an impulse at the clock (idle head, overdue
// task). While both match, recomputing the chain would reproduce the
// stored tail bit for bit, so it is skipped and the stamp stays put.
//
// Two queue changes keep the memo exact: a commit that leaves its machine
// open extends the tail by one chain step and writes it through at the new
// version (probState.commit), and StartNext at an idle-head memo's build
// tick re-keys it to the started head (carriesStart). A memo whose key the
// clock has passed at the same version is stale; the stale rule tests its
// bound, shifted by slack, before anything is rebuilt (staleRuleOn). A
// machine the rule rules out builds no tail this event.
type tailMemo struct {
	valid   bool
	hasExec bool
	ver     uint64
	key     int64
	// slack bounds how far the compactions of the chain that built tail
	// moved any unit of mass (chainSlack); kept only under the stale rule.
	slack int64
	tail  pmf.PMF          // persistent deep copy (storage reused via CopyFrom)
	bound pmf.SuccessBound // summarises tail
}

// probeTask is one batch task the stale rule tests, with its defer floor.
type probeTask struct {
	t     *task.Task
	floor float64
}

// NewEvalCache returns an empty cache, ready to be shared across the
// mapping events of one simulation trial. A cache is tied to one machine
// fleet and one convolution configuration (mode, compaction bound, PET);
// it is not safe for concurrent use — give each simulator its own.
func NewEvalCache() *EvalCache {
	return &EvalCache{evals: make(map[int]*taskEval), deferred: make(map[int]bool)}
}

// Hits returns how many phase-one evaluations were served from the cache.
func (c *EvalCache) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.hits
}

// Misses returns how many phase-one evaluations had to be computed.
func (c *EvalCache) Misses() int64 {
	if c == nil {
		return 0
	}
	return c.misses
}

// Forget drops any cached evaluations for the given task ID, recycling the
// record. The simulator calls it when a task exits the system.
func (c *EvalCache) Forget(taskID int) {
	if c == nil {
		return
	}
	if te, ok := c.evals[taskID]; ok {
		delete(c.evals, taskID)
		c.free = append(c.free, te)
	}
}

// taskEval is one task's row of cached phase-one evaluations, one slot per
// machine, each stamped with the tail stamp it was computed against.
type taskEval struct {
	res []fastEval
	ver []uint64
	has []bool
}

// row returns the (possibly recycled) evaluation row for taskID, sized for
// n machines. A fresh or recycled row starts with every slot invalid; an
// existing row keeps its slots — stamp mismatches invalidate them lazily.
func (c *EvalCache) row(taskID, n int) *taskEval {
	te := c.evals[taskID]
	if te == nil {
		if k := len(c.free); k > 0 {
			te = c.free[k-1]
			c.free = c.free[:k-1]
		} else {
			te = &taskEval{}
		}
		c.evals[taskID] = te
		if cap(te.res) < n {
			te.res = make([]fastEval, n)
			te.ver = make([]uint64, n)
			te.has = make([]bool, n)
		} else {
			te.res = te.res[:n]
			te.ver = te.ver[:n]
			te.has = te.has[:n]
		}
		for i := range te.has {
			te.has[i] = false // recycled rows carry another task's slots
		}
	}
	return te
}

// openMachines lists the machines of ms with a free queue slot, in index
// order, in c's reused storage.
func (c *EvalCache) openMachines(ms []*machine.Machine) []int {
	c.open = c.open[:0]
	for i, m := range ms {
		if m.FreeSlots() > 0 {
			c.open = append(c.open, i)
		}
	}
	return c.open
}

// closeIfFull removes machine mi from open once a commit has taken its last
// slot, keeping the rest in index order, and reports whether it did.
func closeIfFull(ctx *Context, open *[]int, mi int) bool {
	if ctx.Machines[mi].FreeSlots() > 0 {
		return false
	}
	k := slices.Index(*open, mi)
	*open = slices.Delete(*open, k, k+1)
	return true
}

// scalarState tracks expected machine-ready times for the scalar baselines,
// for the open machines only; it is updated incrementally as phase two
// commits assignments, and a machine leaves open when a commit fills it.
type scalarState struct {
	open  []int
	ready []float64 // indexed by machine; only open machines' entries are current
}

func newScalarState(ctx *Context) scalarState {
	c := ctx.Cache
	if c == nil {
		c = &EvalCache{}
	}
	if cap(c.ready) < len(ctx.Machines) {
		c.ready = make([]float64, len(ctx.Machines))
	}
	s := scalarState{open: c.openMachines(ctx.Machines), ready: c.ready[:len(ctx.Machines)]}
	for _, i := range s.open {
		s.ready[i] = ctx.Machines[i].ExpectedReady(ctx.Now, ctx.PET)
	}
	return s
}

// takeRemaining copies the batch into the cache's recycled working slice
// (or a fresh one without a cache); putRemaining returns the storage.
func (c *EvalCache) takeRemaining(batch []*task.Task) []*task.Task {
	if c == nil {
		return append([]*task.Task(nil), batch...)
	}
	return append(c.remaining[:0], batch...)
}

func (c *EvalCache) putRemaining(r []*task.Task) {
	if c != nil {
		c.remaining = r[:0]
	}
}

// ect returns the expected completion time of task t on machine mi.
func (s *scalarState) ect(ctx *Context, t *task.Task, mi int) float64 {
	return s.ready[mi] + ctx.entry(t, mi).Prof.Mean()
}

// bestMachine returns the open machine minimizing t's expected completion
// time. The caller guarantees open is non-empty.
func (s *scalarState) bestMachine(ctx *Context, t *task.Task) (mi int, ect float64) {
	mi = -1
	for _, i := range s.open {
		if e := s.ect(ctx, t, i); mi == -1 || e < ect {
			mi, ect = i, e
		}
	}
	return mi, ect
}

// commit enqueues t on machine mi and advances the expected ready time, or
// closes the machine when t took its last slot.
func (s *scalarState) commit(ctx *Context, t *task.Task, mi int) {
	if err := ctx.Machines[mi].Enqueue(t); err != nil {
		panic(fmt.Sprintf("heuristics: commit to full machine %d: %v", mi, err))
	}
	if !closeIfFull(ctx, &s.open, mi) {
		s.ready[mi] += ctx.entry(t, mi).Prof.Mean()
	}
}

// probState binds one mapping event to the (persistent) evaluation cache
// for the robustness-based heuristics (MOC, PAM, PAMF).
//
// Phase one needs only two scalars per (task, machine) pair — success
// probability and expected machine-free time — which the PET's prefix-sum
// profiles yield in one O(|tail|) scan without materializing a convolution
// (pmf.DropEval). Full convolutions happen only when a pair is committed,
// to produce the machine's next tail PMF. Evaluations are cached per task
// in the EvalCache and invalidated per machine by queue version, since a
// commit perturbs exactly one tail. Only open machines have a tail: a
// machine leaves open when a commit fills it, and nothing reads its tail
// again in the event.
type probState struct {
	cache  *EvalCache
	open   []int              // machines with a free slot, in index order
	tails  []*pmf.PMF         // == cache.tails, re-sliced for this event; current for open machines
	bounds []pmf.SuccessBound // == cache.bounds; bounds[i] summarises tails[i]
	arena  *pmf.Arena
	naive  bool
}

// fastEval is a cached phase-one evaluation of one (task, machine) pair.
type fastEval struct {
	success float64
	expFree float64
}

func newProbState(ctx *Context, batch []*task.Task) *probState {
	c := ctx.Cache
	if c == nil {
		c = NewEvalCache()
	}
	n := len(ctx.Machines)
	if cap(c.tails) < n {
		c.tails = make([]*pmf.PMF, n)
		c.bounds = make([]pmf.SuccessBound, n)
		c.stamps = make([]uint64, n)
		c.memo = make([]tailMemo, n)
	}
	c.tails = c.tails[:n]
	c.bounds = c.bounds[:n]
	c.stamps = c.stamps[:n]
	c.memo = c.memo[:n]
	// The probState lives inside the cache so that binding an event to it
	// allocates nothing — a streaming trial runs millions of mapping events
	// through the same record.
	s := &c.ps
	s.cache, s.tails, s.bounds, s.arena, s.naive = c, c.tails, c.bounds, ctx.Arena, ctx.NaiveEval
	s.open = c.openMachines(ctx.Machines)
	c.probed = false
	for _, i := range s.open {
		s.tails[i] = c.tailFor(ctx, i, ctx.Machines[i], batch)
	}
	return s
}

// tailFor returns machine m's queue-tail PMF for this event and sets its
// bound, reusing the cross-event memo when the queue version and
// conditioning key both match (in which case the stamp — and thus every
// cached evaluation against this machine — stays valid). A memo carried
// across a start is re-keyed first, and a stale one is tested by the stale
// rule, which returns nil with the empty tail's bound when no batch task
// can reach its floor on m. Otherwise the chain is recomputed in the arena,
// snapshotted into the memo, and the stamp advances.
func (c *EvalCache) tailFor(ctx *Context, i int, m *machine.Machine, batch []*task.Task) *pmf.PMF {
	ex, exec, origin := m.Head(ctx.PET)
	if ex == nil && len(m.Pending()) == 0 {
		// Empty machine: the tail is an impulse at the clock. Memoizing is
		// pointless (it changes every tick) and evaluations against it are
		// O(1) profile lookups anyway.
		c.memo[i].valid = false
		c.stamps[i]++
		t := ctx.Arena.Impulse(ctx.Now)
		c.bounds[i].Set(t)
		return t
	}
	// An idle head with pending work, or an overdue one (its conditioned
	// PMF is Impulse(now)), starts the chain at the clock.
	key, hasExec := -ctx.Now, ex != nil
	if ex != nil {
		// TailPMF conditions the head at the clock: ver pins the run's
		// degradation factor (SetSpeed bumps the version), so the key only
		// needs the conditioned first-impulse tick of the head's PMF.
		if tick, ok := exec.FirstImpulseAt(ctx.Now - origin); ok {
			key = tick
		}
	}
	e := &c.memo[i]
	stale := staleRuleOn(ctx)
	if !ctx.NaiveEval && e.valid {
		if hasExec && !e.hasExec && carriesStart(e, m, ex, exec, origin) {
			c.stamps[i]++ // a rebuild would have advanced it too
		}
		if e.ver == m.Version() && e.hasExec == hasExec {
			if e.key == key {
				c.bounds[i] = e.bound
				return &e.tail
			}
			if stale && hasExec && e.key < key && c.staleRulesOut(ctx, i, m, batch) {
				c.bounds[i] = pmf.SuccessBound{}
				return nil
			}
		}
	}
	t := m.TailPMF(ctx.Arena, ctx.Now, ctx.PET, ctx.Mode, ctx.MaxImpulses, nil)
	e.tail.CopyFrom(t)
	e.bound.Set(t)
	e.valid, e.ver, e.key, e.hasExec = true, m.Version(), key, hasExec
	if stale {
		e.slack = chainSlack(ctx, m, ex, exec, origin)
	}
	c.bounds[i] = e.bound
	c.stamps[i]++
	return &e.tail
}

// carriesStart re-keys e, a memo built with an idle head, to the head m
// has since started, and reports whether it did. The memo's first chain
// step is ChainStep(Impulse(t), exec, δ) at its build tick t; the started
// head's step is Compact(EvictTail(exec shifted to its origin, δ)), or
// Compact(exec shifted) outside Evict, and the two agree bit for bit when
// StartNext at t was the only mutation since the build (ver+1), the head
// banked no progress (its origin is its start, so the memo priced it from
// the same unconditioned entry) and its deadline is after t (a start at
// or past the deadline carries the impulse through instead). The memo is
// then exactly the tail a rebuild would give at any tick the head is
// conditioned no further than at t, whose key is the head's first impulse:
// the clock has not reached the head's first possible completion, and
// ShiftConditioned returns the unconditioned clone. Its chain slack is
// unchanged: the idle step's span is the head's.
func carriesStart(e *tailMemo, m *machine.Machine, ex *task.Task, exec *pmf.PMF, origin int64) bool {
	built := -e.key // an idle-head memo's key is minus its build tick
	if m.Version() != e.ver+1 || ex.Start != built || origin != ex.Start || ex.Deadline <= built {
		return false
	}
	key, ok := exec.FirstImpulseAt(built - origin)
	if !ok {
		return false
	}
	e.ver, e.key, e.hasExec = m.Version(), key, true
	return true
}

// staleRulesOut reports whether no batch task can reach its defer floor on
// machine i, judged from its stale memo's bound with every deadline pushed
// back by W = S_memo + S_now (staleRuleOn has the argument). Each type's
// latest-deadline unrestored task stands for every unrestored task of its
// type: they share an entry and a floor, and the bound is monotone in the
// deadline, so the representative's bound is the largest. Restored tasks
// are tested one by one, since each is priced from its own conditioned
// entry.
func (c *EvalCache) staleRulesOut(ctx *Context, i int, m *machine.Machine, batch []*task.Task) bool {
	e := &c.memo[i]
	ex, exec, origin := m.Head(ctx.PET)
	w := e.slack + chainSlack(ctx, m, ex, exec, origin)
	if !c.probed {
		c.buildProbe(ctx, batch)
	}
	for _, p := range c.probe {
		if !e.bound.Below(ctx.entry(p.t, i).Prof, p.t.Deadline+w, p.floor) {
			return false
		}
	}
	return true
}

// buildProbe fills c.probe for this event: each task type's
// latest-deadline unrestored batch task, then every restored one, each
// with its defer floor.
func (c *EvalCache) buildProbe(ctx *Context, batch []*task.Task) {
	c.probe, c.probed = c.probe[:0], true
	for _, t := range batch {
		if t.Consumed > 0 {
			c.probe = append(c.probe, probeTask{t, deferFloor(ctx, t)})
			continue
		}
		for int(t.Type) >= len(c.repOf) {
			c.repOf = append(c.repOf, -1)
		}
		switch k := c.repOf[t.Type]; {
		case k < 0:
			c.repOf[t.Type] = len(c.probe)
			c.probe = append(c.probe, probeTask{t, deferFloor(ctx, t)})
		case t.Deadline > c.probe[k].t.Deadline:
			c.probe[k].t = t
		}
	}
	for _, p := range c.probe {
		if p.t.Consumed <= 0 {
			c.repOf[p.t.Type] = -1
		}
	}
}

// compute is the uncached phase-one evaluation of task t on machine mi.
func (s *probState) compute(ctx *Context, t *task.Task, mi int) fastEval {
	success, expFree := pmf.DropEval(s.tails[mi], ctx.entry(t, mi).Prof, t.Deadline, ctx.Mode)
	return fastEval{success: success, expFree: expFree}
}

// evaluate returns the (cached) fast evaluation of task t on machine mi. A
// cache slot is valid while machine mi's tail stamp is unchanged — a
// commit bumps exactly one machine's stamp (invalidating one column), and
// across events the stamp only moves when the tail memo misses.
func (s *probState) evaluate(ctx *Context, t *task.Task, mi int) fastEval {
	if s.naive {
		return s.compute(ctx, t, mi)
	}
	te := s.cache.row(t.ID, len(ctx.Machines))
	stamp := s.cache.stamps[mi]
	if te.has[mi] && te.ver[mi] == stamp {
		s.cache.hits++
		return te.res[mi]
	}
	s.cache.misses++
	r := s.compute(ctx, t, mi)
	te.res[mi], te.ver[mi], te.has[mi] = r, stamp, true
	return r
}

// tieEps is the success-probability band within which phase one counts
// two machines as tied and prefers the earlier expected machine-free time.
const tieEps = 1e-9

// bestByRobustness returns the open machine maximizing the task's success
// probability, together with the evaluation; ok is false when no machine
// has room. Ties (common once robustness saturates at 1.0 on several
// machines) break toward the earliest expected completion — without this,
// every saturated task would pile onto the lowest-indexed machine.
//
// Machines whose tail summary bounds the task's success below floor
// (pmf.SuccessBound.Below) are skipped without an evaluation or a cache
// lookup; mi is −1 (with ok true) when every free machine was skipped.
// Pass math.Inf(-1) to scan exhaustively.
func (s *probState) bestByRobustness(ctx *Context, t *task.Task, floor float64) (mi int, ev fastEval, ok bool) {
	bounded := floor > math.Inf(-1)
	best := -1
	var bestEv fastEval
	for _, i := range s.open {
		if bounded && s.bounds[i].Below(ctx.entry(t, i).Prof, t.Deadline, floor) {
			continue
		}
		r := s.evaluate(ctx, t, i)
		switch {
		case best == -1 || r.success > bestEv.success+tieEps:
			best, bestEv = i, r
		case r.success > bestEv.success-tieEps && r.expFree < bestEv.expFree:
			best, bestEv = i, r
		}
	}
	if len(s.open) == 0 {
		return 0, fastEval{}, false
	}
	return best, bestEv, true
}

// commit enqueues t on machine mi and folds its execution into the tail
// with one full dropping-aware convolution, or closes the machine when t
// took its last slot. Enqueue bumps the machine's queue version, which is
// what invalidates cached evaluations against this machine — no explicit
// invalidation pass is needed.
//
// When the machine stays open and its tail is the memo's, the extended
// tail is written through into the memo at the new version: it is exactly
// what a rebuild at the same key would give (TailPMF chains the pending
// tasks in order with the same step), so the next event finds the memo
// current instead of a version behind.
func (s *probState) commit(ctx *Context, t *task.Task, mi int) {
	m := ctx.Machines[mi]
	if err := m.Enqueue(t); err != nil {
		panic(fmt.Sprintf("heuristics: commit to full machine %d: %v", mi, err))
	}
	s.cache.stamps[mi]++ // one column of cached evaluations dies, no more
	s.cache.Forget(t.ID)
	if closeIfFull(ctx, &s.open, mi) {
		return
	}
	prev, exec := s.tails[mi], ctx.entry(t, mi).PMF
	next := s.arena.ChainStep(prev, exec, t.Deadline, ctx.Mode, ctx.MaxImpulses)
	s.bounds[mi].Set(next)
	if e := &s.cache.memo[mi]; prev == &e.tail {
		if staleRuleOn(ctx) {
			lo, hi := evictSpan(prev.Start(), prev.End(), exec, t.Deadline)
			e.slack += groupSlack(hi-lo+1, ctx.MaxImpulses)
		}
		e.tail.CopyFrom(next)
		e.ver, e.bound = m.Version(), s.bounds[mi]
		next = &e.tail
	}
	s.tails[mi] = next
}

// removeTask deletes the element at index i from ts, order-preserving.
func removeTask(ts []*task.Task, i int) []*task.Task {
	return append(ts[:i], ts[i+1:]...)
}
