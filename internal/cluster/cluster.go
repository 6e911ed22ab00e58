// Package cluster shards the simulated HC system across datacenters: the
// PET matrix's machine fleet is partitioned into contiguous blocks, each
// datacenter runs the existing single-DC simulator core — its own batch
// queue, pruner, and heuristic instance — and a front-end dispatcher
// routes every arriving task to one datacenter through a pluggable policy
// (round-robin, least-queued, or PET-aware expected-on-time scoring).
//
// The engine interleaves the per-DC simulators over one global clock using
// the simulator's stepping primitives, with a fixed tie order (arrivals
// first, then the engine's own event queue, then per-DC events by index),
// so a sharded trial replays byte-identically run over run — and a 1-DC
// cluster is byte-identical to the plain single-fleet engine, which the
// equivalence tests pin. The engine queue holds the scenario's
// dc-fail/dc-recover events (whole-DC outages) beside the failover layer's
// gate events, ordered by (tick, schedule order); New schedules the truth
// events first, in declaration order, so they fire in (tick, declaration)
// order and settle before any gate event at their tick. A failed
// datacenter's tasks either drop or fail over to the survivors through
// the same routing decision that routes arrivals.
//
// By default the dispatcher is an oracle: it sees outages the instant they
// happen. A scenario failover policy replaces that oracle with a simulated
// health monitor — heartbeat detection lag, bounded gate buffering with
// shedding, and retry/backoff re-dispatch; see failover.go.
package cluster

import (
	"fmt"
	"math"
	"strings"

	"taskprune/internal/metrics"
	"taskprune/internal/pet"
	"taskprune/internal/scenario"
	"taskprune/internal/simulator"
	"taskprune/internal/task"
	"taskprune/internal/telemetry"
	"taskprune/internal/trace"
	"taskprune/internal/workload"
)

// Config assembles one sharded cluster.
type Config struct {
	// DCs is the number of datacenters the PET fleet is partitioned into:
	// datacenter d owns the contiguous machine block [d·M/N, (d+1)·M/N),
	// so an 8-machine PET split 3 ways yields fleets of 2, 3, and 3.
	DCs int
	// Policy routes dispatched tasks (nil → round-robin). Policies are
	// stateful per engine; do not share one instance across engines.
	Policy Policy
	// Sim is the per-datacenter simulator template: heuristic, PET,
	// pruning, drop mode, prices, trim. Its Machines field must be nil
	// (the engine partitions the fleet) and its Trace nil (use Traces);
	// its Scenario may mix machine-scoped events — applied inside the
	// owning datacenter — with cluster-scoped dc-fail/dc-recover events,
	// which the engine itself handles.
	Sim simulator.Config
	// Traces, when non-nil, carries one decision-trace recorder per
	// datacenter (nil entries disable tracing for that DC).
	Traces []*trace.Recorder
	// RecordDispatch retains the dispatcher's routing log (Dispatches) for
	// auditing and the golden cluster traces.
	RecordDispatch bool
	// Parallel steps the datacenters concurrently, one goroutine per DC,
	// through the wide-window driver (parallel.go) instead of interleaving
	// them on the caller's goroutine. It needs round-robin routing — New
	// rejects any other policy, whose picks read queue state the workers
	// mutate. Traces, dispatch log, and statistics are byte-identical
	// either way (the determinism tests pin this); the knob only trades
	// goroutines for wall-clock.
	Parallel bool
	// Telemetry, when non-nil, enables probe registries and tick-driven
	// samplers: one shard for the engine (gate and health metrics) and one
	// per datacenter simulator. Shards are goroutine-owned and merged only
	// at barriers, so parallel stepping stays race-free and byte-identical
	// to sequential; nil is the zero-cost disabled state.
	Telemetry *telemetry.Options
	// Phases, when true, attributes wall time to dispatch/admit/step/eval/
	// convolve spans (one timer per shard, merged by Engine.Phases). The
	// simulator template's PhaseTimer must stay nil — the engine builds
	// per-DC timers itself so parallel workers never share one.
	Phases bool
}

// DC is one datacenter: a fleet partition running the single-DC simulator
// core behind the dispatcher.
type DC struct {
	index int
	cols  []int
	sim   *simulator.Simulator
	// view is the PET the datacenter's simulator schedules on — the
	// belief, not necessarily the truth — so dispatch scoring and mapping
	// agree on what they believe about execution times.
	view pet.View
	// alive tracks dc-fail/dc-recover only; a datacenter whose machines
	// are individually down (machine-scoped events) still receives
	// arrivals — that is a brownout, not an outage.
	alive bool
	// healthy is the dispatcher's *belief* about alive. Under the oracle
	// failover policy the two never diverge; under heartbeat detection
	// healthy lags alive in both directions (detection delay after a
	// failure, probation after a recovery). Routing policies see healthy.
	healthy bool
}

// Index returns the datacenter's position in the partition order.
func (d *DC) Index() int { return d.index }

// Machines returns the global PET column indices this datacenter owns.
func (d *DC) Machines() []int { return d.cols }

// Sim exposes the datacenter's simulator (counters, machines, tests).
func (d *DC) Sim() *simulator.Simulator { return d.sim }

// Alive reports whether the dispatcher believes the datacenter is in
// service. This is the routing view — policies must only see what the
// health monitor sees — and equals ground truth exactly when the failover
// policy is the oracle (the default).
func (d *DC) Alive() bool { return d.healthy }

// InService reports ground truth: whether the datacenter is actually up
// (not dc-failed), regardless of what the health monitor believes.
func (d *DC) InService() bool { return d.alive }

// QueuedLoad counts every task the datacenter currently holds: the batch
// queue plus each machine's queue, executing task included.
func (d *DC) QueuedLoad() int {
	n := d.sim.BatchLen()
	for _, m := range d.sim.Machines() {
		n += m.QueueLen()
	}
	return n
}

// onTimeScore is the PET-aware dispatch score: the best on-time completion
// probability any alive machine in the datacenter offers the task, taking
// expected queue backlog and current degradation factors into account.
func (d *DC) onTimeScore(now int64, t *task.Task) float64 {
	best := 0.0
	for _, m := range d.sim.Machines() {
		if !m.Alive() {
			continue
		}
		ready := m.ExpectedReady(now, d.view)
		slack := float64(t.Deadline) - ready
		if slack < 0 {
			continue
		}
		p := d.view.Entry(t.Type, m.ID, m.Speed(), 0).Prof.CDF(int64(slack))
		if p > best {
			best = p
		}
	}
	return best
}

// Dispatch is one routing decision of the front-end dispatcher.
type Dispatch struct {
	Tick     int64
	TaskID   int
	DC       int  // -1: consumed at the gate (dropped or buffered)
	Failover bool // re-routing after an outage: salvage, bounce retry, loss
	// Attempt counts prior failed dispatches of this task under detection
	// (0 for fresh arrivals and buffer drains). Not part of the golden
	// dispatch-blob format, which predates it.
	Attempt int
}

// Engine drives one sharded trial. Like the simulator it wraps, it is
// single-use and not safe for concurrent use — parallel trial runners
// build one engine per trial.
type Engine struct {
	cfg    Config
	matrix *pet.Matrix
	policy Policy
	dcs    []*DC

	// events is the engine-level event queue: dc-fail/dc-recover truth
	// events and the failover layer's gate events, ordered by (tick, seq).
	events   eventHeap
	eventSeq int

	collector  *metrics.Stream
	recycler   workload.Recycler
	dispatches []Dispatch
	scratch    []*task.Task
	now        int64

	// Detection-and-admission layer state (failover.go). With a disabled
	// policy only gateStats.Dropped ever moves.
	fo        *scenario.FailoverPolicy
	epochs    []int
	buf       []*task.Task
	gateStats metrics.GateStats
	lostByDC  []int

	// liveOn is armed by StartLive, after which the engine is driven one
	// submission at a time instead of by RunSource (live.go).
	liveOn bool

	// Gate tallies: fresh arrivals reaching the dispatcher, the ones
	// admitted straight into a datacenter, and tasks injected into one
	// later (failover salvage, bounce retries, buffer drains).
	arrivals int
	admitted int
	injected int

	// Telemetry: the engine's own shard (tel/sampler/pr), whose counters
	// read the tallies above and gateStats, the engine's dispatch-phase
	// timer, and the per-DC timers it merges at the end.
	tel          *telemetry.Registry
	sampler      *telemetry.Sampler
	pr           engineProbes
	lastArrivals int
	phases       *telemetry.PhaseTimer
	dcPhases     []*telemetry.PhaseTimer
}

// New validates cfg, partitions the fleet, and builds the per-datacenter
// simulators.
func New(cfg Config) (*Engine, error) {
	if cfg.Sim.PET == nil || cfg.Sim.PET.NumMachines() == 0 {
		return nil, fmt.Errorf("cluster: missing PET matrix")
	}
	nm := cfg.Sim.PET.NumMachines()
	if cfg.DCs < 1 {
		return nil, fmt.Errorf("cluster: %d datacenters for %d machines (need 1..%d)", cfg.DCs, nm, nm)
	}
	if cfg.DCs > nm {
		return nil, fmt.Errorf("cluster: %d datacenters for %d machines leaves %d empty (contiguous split %s; need 1..%d)",
			cfg.DCs, nm, cfg.DCs-nm, partitionSplit(nm, cfg.DCs), nm)
	}
	if cfg.Sim.Machines != nil {
		return nil, fmt.Errorf("cluster: the simulator template must leave Machines nil; the engine partitions the fleet")
	}
	if cfg.Sim.Trace != nil {
		return nil, fmt.Errorf("cluster: set per-DC recorders via Traces, not the simulator template")
	}
	if cfg.Sim.Telemetry != nil {
		return nil, fmt.Errorf("cluster: set telemetry via Config.Telemetry, not the simulator template")
	}
	if cfg.Sim.PhaseTimer != nil {
		return nil, fmt.Errorf("cluster: set phase timing via Config.Phases, not the simulator template (parallel workers must not share a timer)")
	}
	if cfg.Traces != nil && len(cfg.Traces) != cfg.DCs {
		return nil, fmt.Errorf("cluster: %d trace recorders for %d datacenters", len(cfg.Traces), cfg.DCs)
	}
	policy := cfg.Policy
	if policy == nil {
		policy = &RoundRobin{}
	}
	if _, rr := policy.(*RoundRobin); cfg.Parallel && !rr {
		return nil, fmt.Errorf("cluster: parallel stepping needs round-robin routing; %q reads datacenter state the stepping workers mutate", policy.Name())
	}
	truth, perDC, err := splitScenario(cfg.Sim.Scenario, nm, cfg.DCs)
	if err != nil {
		return nil, err
	}
	// Resolve the checkpoint/restore policy before the scenario is split:
	// the per-DC sub-scenarios carry only that datacenter's fleet events,
	// so a policy declared on the cluster scenario must be pinned onto the
	// per-DC simulator configs explicitly — every datacenter checkpoints
	// (and applies the same survival mode at dc-fail) identically.
	ckpt := cfg.Sim.Checkpoint
	if ckpt == nil && cfg.Sim.Scenario != nil {
		ckpt = cfg.Sim.Scenario.Checkpoint
	}
	// The belief policy is pinned the same way — each datacenter gets its
	// own belief instance (its own online estimator learning from its own
	// completions) under one shared policy.
	bp := cfg.Sim.Belief
	if bp == nil && cfg.Sim.Scenario != nil {
		bp = cfg.Sim.Scenario.Belief
	}
	// The failover policy is cluster-scoped: it configures the dispatcher,
	// not the datacenters. Validate it here unconditionally — a static
	// scenario skips ValidateCluster in splitScenario, but a malformed
	// policy must still be rejected.
	var fo *scenario.FailoverPolicy
	if cfg.Sim.Scenario != nil {
		fo = cfg.Sim.Scenario.Failover
	}
	if err := fo.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	e := &Engine{
		cfg: cfg, matrix: cfg.Sim.PET, policy: policy, fo: fo,
		epochs: make([]int, cfg.DCs), lostByDC: make([]int, cfg.DCs),
	}
	// Truth events take the queue's first sequence numbers, so they fire in
	// (tick, declaration) order and win ties against every gate event.
	for _, ev := range truth {
		kind := evDCRecover
		if ev.Kind == scenario.DCFail {
			kind = evDCFail
		}
		e.push(engineEvent{tick: ev.Tick, kind: kind, dc: ev.DC, drop: ev.Policy == scenario.Drop})
	}
	if cfg.Telemetry != nil {
		e.tel = telemetry.NewRegistry()
		e.pr = e.newEngineProbes(e.tel)
		e.sampler = telemetry.NewSampler(e.tel, cfg.Telemetry)
		e.sampler.Prepare = e.prepareSample
	}
	if cfg.Phases {
		e.phases = telemetry.NewPhaseTimer()
	}
	for d := 0; d < cfg.DCs; d++ {
		lo, hi := blockBounds(d, nm, cfg.DCs)
		cols := make([]int, 0, hi-lo)
		for mi := lo; mi < hi; mi++ {
			cols = append(cols, mi)
		}
		cfgd := cfg.Sim
		cfgd.Machines = cols
		cfgd.Scenario = perDC[d]
		cfgd.Checkpoint = ckpt
		cfgd.Belief = bp
		cfgd.Telemetry = cfg.Telemetry
		if cfg.Phases {
			pt := telemetry.NewPhaseTimer()
			e.dcPhases = append(e.dcPhases, pt)
			cfgd.PhaseTimer = pt
		}
		if cfg.Traces != nil {
			cfgd.Trace = cfg.Traces[d]
		}
		sim, err := simulator.New(cfgd)
		if err != nil {
			return nil, fmt.Errorf("cluster: datacenter %d: %w", d, err)
		}
		e.dcs = append(e.dcs, &DC{index: d, cols: cols, sim: sim, view: sim.View(), alive: true, healthy: true})
	}
	return e, nil
}

// blockBounds returns the half-open global machine range [lo, hi) that
// datacenter d owns under the contiguous partition of nm machines into
// nDCs blocks. When nDCs does not divide nm the remainder spreads
// deterministically: block sizes differ by at most one, with the nm mod
// nDCs larger blocks spread evenly across the index range (8 machines
// into 3 DCs → 2+3+3; 7 into 5 → 1+1+2+1+2). Both New and dcOfMachine
// derive the partition from this single helper, so ownership and
// construction cannot disagree.
func blockBounds(d, nm, nDCs int) (lo, hi int) {
	return d * nm / nDCs, (d + 1) * nm / nDCs
}

// partitionSplit renders the contiguous partition's block sizes ("2+3+3")
// for error messages, so a rejected configuration reports the split it
// would have produced.
func partitionSplit(nm, nDCs int) string {
	var b strings.Builder
	for d := 0; d < nDCs; d++ {
		lo, hi := blockBounds(d, nm, nDCs)
		if d > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%d", hi-lo)
	}
	return b.String()
}

// dcOfMachine returns the datacenter owning global machine index mi under
// the contiguous partition of nm machines into nDCs blocks.
func dcOfMachine(mi, nm, nDCs int) int {
	for d := 0; d < nDCs; d++ {
		if _, hi := blockBounds(d, nm, nDCs); mi < hi {
			return d
		}
	}
	return nDCs - 1
}

// splitScenario validates a cluster scenario and splits it: cluster-scoped
// dc-fail/dc-recover events are returned in declaration order for the
// engine queue, while machine-scoped events and InitialDown entries go to
// the owning datacenter's sub-scenario (machine IDs stay global; the
// partitioned simulators resolve them). Burst windows stay with the
// caller's workload configuration, exactly as in single-fleet runs.
func splitScenario(sc *scenario.Scenario, nm, nDCs int) ([]scenario.Event, []*scenario.Scenario, error) {
	perDC := make([]*scenario.Scenario, nDCs)
	if sc.IsStatic() {
		return nil, perDC, nil
	}
	if err := sc.ValidateCluster(nm, nDCs); err != nil {
		return nil, nil, fmt.Errorf("cluster: %w", err)
	}
	var truth []scenario.Event
	sub := func(d int) *scenario.Scenario {
		if perDC[d] == nil {
			perDC[d] = scenario.New(fmt.Sprintf("%s@dc%d", sc.Name, d))
		}
		return perDC[d]
	}
	for _, ev := range sc.Events {
		if ev.Kind == scenario.DCFail || ev.Kind == scenario.DCRecover {
			truth = append(truth, ev)
			continue
		}
		d := dcOfMachine(ev.Machine, nm, nDCs)
		s := sub(d)
		s.Events = append(s.Events, ev)
	}
	for _, mi := range sc.InitialDown {
		s := sub(dcOfMachine(mi, nm, nDCs))
		s.InitialDown = append(s.InitialDown, mi)
	}
	return truth, perDC, nil
}

// RunSource runs the sharded trial to the end of the stream: arrivals are
// pulled from one shared source and fanned out through the dispatcher, and
// every datacenter's exits aggregate into cluster-level statistics. It
// returns the cluster aggregate (robustness over everything that flowed
// through the cluster, cost summed across datacenters) plus each
// datacenter's own trial statistics.
//
// The sequential run is the live path (live.go) run to completion: every
// pulled task is submitted in turn, then the event queue runs dry.
func (e *Engine) RunSource(src workload.Source) (metrics.TrialStats, []metrics.TrialStats, error) {
	rec, _ := src.(workload.Recycler)
	e.begin(rec)
	if e.cfg.Parallel && len(e.dcs) > 1 {
		if err := e.runParallel(src); err != nil {
			return metrics.TrialStats{}, nil, err
		}
	} else {
		for t, ok := src.Next(); ok; t, ok = src.Next() {
			if err := e.submit(t); err != nil {
				return metrics.TrialStats{}, nil, err
			}
		}
		// Unlike Quiesce, which stops once nothing is in flight, the batch
		// drain runs the event queue dry: trailing events such as a
		// far-future dc-fail still fire and show in telemetry.
		if err := e.stepBefore(math.MaxInt64); err != nil {
			return metrics.TrialStats{}, nil, err
		}
	}
	st, perDC := e.finish()
	return st, perDC, nil
}

// nextEvent returns the earliest pending event across the cluster — the
// engine queue (dc -1) and every datacenter's internal queue. Ties break
// engine queue first, then lowest datacenter index: a fixed, documented
// order that keeps multi-DC replays byte-identical (truth events settle
// before the belief observations and retries that depend on them, and
// both before the datacenters step).
func (e *Engine) nextEvent() (tick int64, dc int, ok bool) {
	tick, ok = e.nextEngineTick()
	dc = -1
	for i, d := range e.dcs {
		if t, has := d.sim.NextEventTick(); has && (!ok || t < tick) {
			tick, dc, ok = t, i, true
		}
	}
	return tick, dc, ok
}

// dispatch routes one arrival through the gate and admits it into the
// picked datacenter's simulator — the sequential path's admit step.
func (e *Engine) dispatch(t *task.Task) error {
	d, err := e.routeArrival(t)
	if err != nil || d < 0 {
		return err
	}
	return e.dcs[d].sim.Admit(t)
}

func (e *Engine) record(d Dispatch) {
	if e.cfg.RecordDispatch {
		e.dispatches = append(e.dispatches, d)
	}
}

// DCList exposes the datacenters (inspection, tests, reporting).
func (e *Engine) DCList() []*DC { return e.dcs }

// Gate returns the dispatcher's admission-layer counters: the three
// distinct loss classes (dropped at gate, shed from buffer, lost to
// undetected outages) plus retry, buffering, and detection-lag telemetry.
func (e *Engine) Gate() metrics.GateStats { return e.gateStats }

// LostUndetectedByDC returns, per datacenter, how many tasks were lost
// while bouncing off that datacenter during its undetected outages.
func (e *Engine) LostUndetectedByDC() []int { return e.lostByDC }

// Failover returns the resolved failover policy (nil when disabled).
func (e *Engine) Failover() *scenario.FailoverPolicy { return e.fo }

func errUnknownPolicy(name string) error {
	return fmt.Errorf("cluster: unknown dispatch policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
}
