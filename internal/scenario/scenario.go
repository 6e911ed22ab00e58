// Package scenario declares dynamic fleet scenarios for the simulator:
// timed machine failures (with their queues requeued or dropped),
// recoveries, elastic join/leave of machines, per-machine performance
// degradation factors, and arrival-rate burst windows. A scenario is a
// small declarative value — built in Go or parsed from JSON — that the
// simulator schedules through its event queue, so fleet churn composes with
// arrivals and completions under the same deterministic tie-ordering as
// everything else.
//
// The paper's evaluation assumes a fixed heterogeneous fleet; scenarios
// open the robustness regime the pruning mechanism is actually for — real
// HC clusters lose machines, get them back, and slow down under background
// load. The PET matrix's column count remains the (maximum) fleet size:
// elastic scenarios start machines absent via InitialDown and join them
// later, so every task still carries one ground-truth execution time per
// potential machine.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"taskprune/internal/workload"
)

// EventKind classifies a fleet event.
type EventKind int

const (
	// Fail removes a machine from the fleet; its queued and executing
	// tasks are requeued to the batch queue or dropped per the event's
	// Policy. "remove" and "leave" parse to Fail (elastic shrink).
	Fail EventKind = iota
	// Recover returns a failed machine to the fleet, idle and empty.
	// "add" and "join" parse to Recover (elastic grow).
	Recover
	// Degrade sets a machine's performance degradation factor: tasks
	// started on it take Factor× their nominal execution time. Factor 1
	// restores nominal speed ("restore" parses to Degrade with Factor 1).
	// The executing task, if any, keeps the factor it started under.
	Degrade
	// Drift ramps a machine's degradation factor from From to Factor over
	// the window [Tick, Until] — thermal throttling building up, a
	// contention ramp releasing. It reuses the workload rate-function ramp
	// shape (workload.RampRate) and is expanded by Sorted into Steps+1
	// discrete Degrade events along the window, so it flows through the
	// same deterministic event queue and cache-invalidation machinery as
	// any step change.
	Drift
	// DCFail is a cluster-scoped event: it takes a whole datacenter out of
	// the cluster. Its Policy selects the fate of the DC's tasks — Requeue
	// fails them over to the surviving datacenters through the dispatcher,
	// Drop exits them. Single-fleet runs reject DC-scoped events; only the
	// cluster engine handles them.
	DCFail
	// DCRecover returns a failed datacenter to the cluster, its machines
	// idle and empty.
	DCRecover
)

// DefaultDriftSteps is how many discrete Degrade steps a Drift event
// expands into when its Steps field is zero.
const DefaultDriftSteps = 8

// MaxDriftSteps bounds a Drift event's step count: the expansion
// materializes Steps+1 Degrade events, so an absurd count would flood the
// event queue.
const MaxDriftSteps = 10_000

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Fail:
		return "fail"
	case Recover:
		return "recover"
	case Degrade:
		return "degrade"
	case Drift:
		return "drift"
	case DCFail:
		return "dc-fail"
	case DCRecover:
		return "dc-recover"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Policy selects what happens to a failed machine's tasks.
type Policy int

const (
	// Requeue returns the machine's tasks (executing first, then the
	// pending queue in FCFS order) to the batch queue; any execution
	// progress is lost. This is the default.
	Requeue Policy = iota
	// Drop exits the machine's tasks from the system as dropped.
	Drop
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == Drop {
		return "drop"
	}
	return "requeue"
}

// Event is one timed fleet change.
type Event struct {
	Tick    int64
	Kind    EventKind
	Machine int
	Factor  float64 // Degrade: new speed factor; Drift: factor at Until (> 0)
	Policy  Policy  // Fail/DCFail: fate of the queued tasks

	// Drift fields: the factor ramps from From at Tick to Factor at Until,
	// discretized into Steps+1 Degrade events (0 → DefaultDriftSteps).
	Until int64
	From  float64
	Steps int

	// DC addresses DCFail/DCRecover events (datacenter index in the
	// cluster's partition order).
	DC int
}

// String renders the event compactly for traces and errors.
func (e Event) String() string {
	switch e.Kind {
	case Degrade:
		return fmt.Sprintf("t=%d degrade m%d ×%g", e.Tick, e.Machine, e.Factor)
	case Drift:
		return fmt.Sprintf("t=%d..%d drift m%d ×%g→×%g", e.Tick, e.Until, e.Machine, e.From, e.Factor)
	case Fail:
		return fmt.Sprintf("t=%d fail m%d (%s)", e.Tick, e.Machine, e.Policy)
	case DCFail:
		return fmt.Sprintf("t=%d dc-fail dc%d (%s)", e.Tick, e.DC, e.Policy)
	case DCRecover:
		return fmt.Sprintf("t=%d dc-recover dc%d", e.Tick, e.DC)
	default:
		return fmt.Sprintf("t=%d %s m%d", e.Tick, e.Kind, e.Machine)
	}
}

// Scenario is a full dynamic-fleet specification. The zero value (or nil)
// is the static fleet the paper evaluates.
type Scenario struct {
	// Name labels the scenario in reports and figures.
	Name string
	// InitialDown lists machines absent at tick 0 (elastic scenarios grow
	// the fleet by recovering them later).
	InitialDown []int
	// Events are the timed fleet changes, in any order; the simulator's
	// event queue orders them by (tick, declaration order).
	Events []Event
	// Bursts are arrival-rate burst windows applied by the workload
	// generator (they shape the task stream, not the fleet).
	Bursts []workload.Burst
	// Checkpoint, when non-nil, is the checkpoint/restore policy tasks run
	// under: how often progress is persisted, what each checkpoint costs,
	// and whether checkpoints survive a whole-DC outage. It rides in the
	// scenario wire format so a fault study declares its recovery policy
	// next to the failures it answers; the simulator reads it through
	// simulator.Config.Checkpoint (an explicitly configured policy wins).
	Checkpoint *CheckpointPolicy
	// Belief, when non-nil, selects what the mapper knows about execution
	// times: the oracle (ground truth, the default), a belief frozen at
	// t=0 while drift/degrade move the truth, or an online estimator
	// rebuilt from observed completions. It rides in the wire format so a
	// robustness study declares its knowledge model next to the events
	// that invalidate it; the simulator reads it through
	// simulator.Config.Belief (an explicitly configured policy wins).
	Belief *BeliefPolicy
	// Failover, when non-nil, selects what the cluster dispatcher knows
	// about datacenter health and how arrivals behave when that knowledge
	// is wrong: heartbeat detection lag, post-recovery probation,
	// bounce-and-retry for dispatches into undetected outages, and the
	// bounded gate buffer. It rides in the wire format so a fault study
	// declares its detection model next to the dc-fail events that stress
	// it; it is the cluster engine's only source of the policy.
	// Single-fleet runs reject an enabled policy — there is no dispatcher
	// to mis-inform.
	Failover *FailoverPolicy
}

// New returns an empty named scenario, ready for the builder methods.
func New(name string) *Scenario { return &Scenario{Name: name} }

// FailAt appends a machine failure. Returns s for chaining.
func (s *Scenario) FailAt(tick int64, machine int, policy Policy) *Scenario {
	s.Events = append(s.Events, Event{Tick: tick, Kind: Fail, Machine: machine, Policy: policy})
	return s
}

// RecoverAt appends a machine recovery. Returns s for chaining.
func (s *Scenario) RecoverAt(tick int64, machine int) *Scenario {
	s.Events = append(s.Events, Event{Tick: tick, Kind: Recover, Machine: machine})
	return s
}

// DegradeAt appends a speed-factor change. Returns s for chaining.
func (s *Scenario) DegradeAt(tick int64, machine int, factor float64) *Scenario {
	s.Events = append(s.Events, Event{Tick: tick, Kind: Degrade, Machine: machine, Factor: factor})
	return s
}

// DriftAt appends a gradual speed-factor ramp on a machine: factor from at
// tick start, factor to at tick end, linearly interpolated in between and
// discretized into steps+1 Degrade events (steps 0 → DefaultDriftSteps).
// Returns s for chaining.
func (s *Scenario) DriftAt(start, end int64, machine int, from, to float64, steps int) *Scenario {
	s.Events = append(s.Events, Event{Tick: start, Kind: Drift, Machine: machine, Until: end, From: from, Factor: to, Steps: steps})
	return s
}

// DCFailAt appends a whole-datacenter failure (cluster runs only). Returns
// s for chaining.
func (s *Scenario) DCFailAt(tick int64, dc int, policy Policy) *Scenario {
	s.Events = append(s.Events, Event{Tick: tick, Kind: DCFail, DC: dc, Policy: policy})
	return s
}

// DCRecoverAt appends a whole-datacenter recovery (cluster runs only).
// Returns s for chaining.
func (s *Scenario) DCRecoverAt(tick int64, dc int) *Scenario {
	s.Events = append(s.Events, Event{Tick: tick, Kind: DCRecover, DC: dc})
	return s
}

// BurstWindow appends an arrival-rate burst. Returns s for chaining.
func (s *Scenario) BurstWindow(start, end int64, factor float64) *Scenario {
	s.Bursts = append(s.Bursts, workload.Burst{Start: start, End: end, Factor: factor})
	return s
}

// WithCheckpoint sets the checkpoint/restore policy. Returns s for chaining.
func (s *Scenario) WithCheckpoint(p CheckpointPolicy) *Scenario {
	s.Checkpoint = &p
	return s
}

// WithFailover sets the dispatcher's health-detection model. Returns s for
// chaining.
func (s *Scenario) WithFailover(p FailoverPolicy) *Scenario {
	s.Failover = &p
	return s
}

// StartDown marks machines as absent at tick 0. Returns s for chaining.
func (s *Scenario) StartDown(machines ...int) *Scenario {
	s.InitialDown = append(s.InitialDown, machines...)
	return s
}

// IsStatic reports whether the scenario changes nothing (nil-safe), so the
// simulator can skip all scenario bookkeeping on the paper's fixed fleet.
func (s *Scenario) IsStatic() bool {
	return s == nil || (len(s.InitialDown) == 0 && len(s.Events) == 0 && len(s.Bursts) == 0)
}

// ApplyBursts copies the scenario's burst windows onto a workload
// configuration (nil-safe no-op). Every path that pairs a scenario with
// generated workloads must route through this, so the two halves of a
// scenario — fleet events into the simulator, bursts into the generator —
// cannot drift apart. Bursts already present on the config win: the caller
// explicitly shaped that workload.
func (s *Scenario) ApplyBursts(cfg *workload.Config) {
	if s == nil || len(cfg.Bursts) > 0 {
		return
	}
	cfg.Bursts = s.Bursts
}

// Validate checks the scenario against a single fleet of nMachines. It
// rejects out-of-range machine indices, negative ticks, non-positive or
// non-finite degradation factors, malformed burst or drift windows, an
// InitialDown set that empties the fleet, and any cluster-scoped
// (dc-fail/dc-recover) event — those only make sense under the cluster
// engine, which validates with ValidateCluster instead.
func (s *Scenario) Validate(nMachines int) error {
	return s.validate(nMachines, 0)
}

// ValidateCluster is Validate for a sharded run: cluster-scoped events are
// allowed and their datacenter indices checked against nDCs.
func (s *Scenario) ValidateCluster(nMachines, nDCs int) error {
	if nDCs < 1 {
		return fmt.Errorf("scenario: cluster validation needs at least one datacenter, got %d", nDCs)
	}
	return s.validate(nMachines, nDCs)
}

// validate implements Validate (nDCs == 0, cluster events rejected) and
// ValidateCluster (nDCs >= 1, cluster events range-checked).
func (s *Scenario) validate(nMachines, nDCs int) error {
	if s == nil {
		return nil
	}
	if nMachines <= 0 {
		return fmt.Errorf("scenario %q: fleet has %d machines", s.Name, nMachines)
	}
	if err := s.Checkpoint.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := s.Belief.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := s.Failover.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if nDCs == 0 && s.Failover.Enabled() {
		return fmt.Errorf("scenario %q: the failover policy is cluster-scoped; single-fleet runs have no dispatcher", s.Name)
	}
	down := make(map[int]bool, len(s.InitialDown))
	for _, mi := range s.InitialDown {
		if mi < 0 || mi >= nMachines {
			return fmt.Errorf("scenario %q: initial_down machine %d out of range [0,%d)", s.Name, mi, nMachines)
		}
		if down[mi] {
			return fmt.Errorf("scenario %q: machine %d listed in initial_down twice", s.Name, mi)
		}
		down[mi] = true
	}
	if len(down) == nMachines {
		return fmt.Errorf("scenario %q: every machine starts down", s.Name)
	}
	for i, e := range s.Events {
		if e.Tick < 0 {
			return fmt.Errorf("scenario %q: event %d (%s) at negative tick", s.Name, i, e)
		}
		if e.Kind == DCFail || e.Kind == DCRecover {
			if nDCs == 0 {
				return fmt.Errorf("scenario %q: event %d (%s) is cluster-scoped; single-fleet runs cannot honor it", s.Name, i, e)
			}
			if e.DC < 0 || e.DC >= nDCs {
				return fmt.Errorf("scenario %q: event %d (%s) datacenter out of range [0,%d)", s.Name, i, e, nDCs)
			}
			if e.Kind == DCFail && e.Policy != Requeue && e.Policy != Drop {
				return fmt.Errorf("scenario %q: event %d (%s) has unknown policy %d", s.Name, i, e, int(e.Policy))
			}
			continue
		}
		if e.Machine < 0 || e.Machine >= nMachines {
			return fmt.Errorf("scenario %q: event %d (%s) machine out of range [0,%d)", s.Name, i, e, nMachines)
		}
		switch e.Kind {
		case Fail:
			if e.Policy != Requeue && e.Policy != Drop {
				return fmt.Errorf("scenario %q: event %d (%s) has unknown policy %d", s.Name, i, e, int(e.Policy))
			}
		case Recover:
			// No extra fields.
		case Degrade:
			if !(e.Factor > 0) || math.IsInf(e.Factor, 0) {
				return fmt.Errorf("scenario %q: event %d (%s) needs a positive finite factor", s.Name, i, e)
			}
		case Drift:
			if e.Until <= e.Tick {
				return fmt.Errorf("scenario %q: event %d (%s) window is malformed", s.Name, i, e)
			}
			if !(e.From > 0) || math.IsInf(e.From, 0) || !(e.Factor > 0) || math.IsInf(e.Factor, 0) {
				return fmt.Errorf("scenario %q: event %d (%s) needs positive finite factors", s.Name, i, e)
			}
			if e.Steps < 0 || e.Steps > MaxDriftSteps {
				return fmt.Errorf("scenario %q: event %d (%s) needs a step count in [0,%d]", s.Name, i, e, MaxDriftSteps)
			}
			steps := e.Steps
			if steps == 0 {
				steps = DefaultDriftSteps
			}
			// expandDrift interpolates with i·(Until−Tick) in int64; keep
			// the widest intermediate product exactly representable.
			if e.Until-e.Tick > math.MaxInt64/int64(steps) {
				return fmt.Errorf("scenario %q: event %d (%s) window too wide for %d steps", s.Name, i, e, steps)
			}
		default:
			return fmt.Errorf("scenario %q: event %d has unknown kind %d", s.Name, i, int(e.Kind))
		}
	}
	for i, b := range s.Bursts {
		if b.Start < 0 || b.End <= b.Start {
			return fmt.Errorf("scenario %q: burst %d window [%d,%d) is malformed", s.Name, i, b.Start, b.End)
		}
		if !(b.Factor > 0) || math.IsInf(b.Factor, 0) {
			return fmt.Errorf("scenario %q: burst %d needs a positive finite factor, got %v", s.Name, i, b.Factor)
		}
	}
	return nil
}

// Sorted returns the events ordered by (tick, declaration order), with
// every Drift event expanded into its discrete Degrade staircase. The
// simulator pushes events in this order so scenario files may declare them
// in any order without perturbing determinism.
func (s *Scenario) Sorted() []Event {
	out := make([]Event, 0, len(s.Events))
	for _, e := range s.Events {
		if e.Kind == Drift {
			out = append(out, e.expandDrift()...)
			continue
		}
		out = append(out, e)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Tick < out[j].Tick })
	return out
}

// expandDrift discretizes a Drift ramp into Steps+1 Degrade events: one at
// each of Steps+1 evenly spaced ticks across [Tick, Until], each carrying
// the workload.RampRate factor at its tick — From at the window start, the
// target Factor exactly at the end. Steps that land on the same integer
// tick collapse to the last (a later Degrade at the same tick overwrites an
// earlier one anyway, so the collapse only trims redundant events).
func (e Event) expandDrift() []Event {
	steps := e.Steps
	if steps == 0 {
		steps = DefaultDriftSteps
	}
	ramp := workload.RampRate(e.Tick, e.Until, e.From, e.Factor)
	out := make([]Event, 0, steps+1)
	for i := 0; i <= steps; i++ {
		tick := e.Tick + int64(i)*(e.Until-e.Tick)/int64(steps)
		step := Event{Tick: tick, Kind: Degrade, Machine: e.Machine, Factor: ramp(float64(tick))}
		if n := len(out); n > 0 && out[n-1].Tick == tick {
			out[n-1] = step
			continue
		}
		out = append(out, step)
	}
	return out
}

// jsonScenario is the wire form of a Scenario.
type jsonScenario struct {
	Name        string          `json:"name"`
	InitialDown []int           `json:"initial_down,omitempty"`
	Events      []jsonEvent     `json:"events,omitempty"`
	Bursts      []jsonBurst     `json:"bursts,omitempty"`
	Checkpoint  *jsonCheckpoint `json:"checkpoint,omitempty"`
	Belief      *jsonBelief     `json:"belief,omitempty"`
	Failover    *jsonFailover   `json:"failover,omitempty"`
}

type jsonEvent struct {
	Tick    int64    `json:"tick"`
	Kind    string   `json:"kind"`
	Machine int      `json:"machine,omitempty"`
	Factor  *float64 `json:"factor,omitempty"`
	Policy  string   `json:"policy,omitempty"`

	// Drift ramps.
	Until int64    `json:"until,omitempty"`
	From  *float64 `json:"from,omitempty"`
	To    *float64 `json:"to,omitempty"`
	Steps int      `json:"steps,omitempty"`

	// Cluster-scoped events.
	DC *int `json:"dc,omitempty"`
}

type jsonBurst struct {
	Start  int64   `json:"start"`
	End    int64   `json:"end"`
	Factor float64 `json:"factor"`
}

// Parse reads a JSON scenario. Structural problems (unknown kinds or
// policies, NaN factors smuggled in as strings, missing fields) fail here;
// fleet-dependent checks happen in Validate, which the simulator calls with
// the PET's machine count.
func Parse(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var in jsonScenario
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s := &Scenario{Name: in.Name, InitialDown: in.InitialDown}
	ckpt, err := parseCheckpoint(in.Checkpoint)
	if err != nil {
		return nil, err
	}
	s.Checkpoint = ckpt
	belief, err := parseBelief(in.Belief)
	if err != nil {
		return nil, err
	}
	s.Belief = belief
	failover, err := parseFailover(in.Failover)
	if err != nil {
		return nil, err
	}
	s.Failover = failover
	for i, je := range in.Events {
		e := Event{Tick: je.Tick, Machine: je.Machine}
		switch je.Kind {
		case "fail", "remove", "leave":
			e.Kind = Fail
			switch je.Policy {
			case "", "requeue":
				e.Policy = Requeue
			case "drop":
				e.Policy = Drop
			default:
				return nil, fmt.Errorf("scenario: event %d has unknown policy %q", i, je.Policy)
			}
		case "recover", "add", "join":
			e.Kind = Recover
		case "degrade":
			if je.Factor == nil {
				return nil, fmt.Errorf("scenario: event %d (degrade) is missing its factor", i)
			}
			e.Kind = Degrade
			e.Factor = *je.Factor
		case "restore":
			e.Kind = Degrade
			e.Factor = 1
		case "drift":
			if je.To == nil {
				return nil, fmt.Errorf("scenario: event %d (drift) is missing its target factor \"to\"", i)
			}
			e.Kind = Drift
			e.Until = je.Until
			e.From = 1
			if je.From != nil {
				e.From = *je.From
			}
			e.Factor = *je.To
			e.Steps = je.Steps
		case "dc-fail":
			if je.DC == nil {
				return nil, fmt.Errorf("scenario: event %d (dc-fail) is missing its datacenter", i)
			}
			e.Kind = DCFail
			e.DC = *je.DC
			switch je.Policy {
			case "", "requeue":
				e.Policy = Requeue
			case "drop":
				e.Policy = Drop
			default:
				return nil, fmt.Errorf("scenario: event %d has unknown policy %q", i, je.Policy)
			}
		case "dc-recover":
			if je.DC == nil {
				return nil, fmt.Errorf("scenario: event %d (dc-recover) is missing its datacenter", i)
			}
			e.Kind = DCRecover
			e.DC = *je.DC
		default:
			return nil, fmt.Errorf("scenario: event %d has unknown kind %q", i, je.Kind)
		}
		s.Events = append(s.Events, e)
	}
	for _, jb := range in.Bursts {
		s.Bursts = append(s.Bursts, workload.Burst{Start: jb.Start, End: jb.End, Factor: jb.Factor})
	}
	return s, nil
}

// Load parses the scenario file at path.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// MarshalJSON implements json.Marshaler so scenarios round-trip through the
// same wire form Parse reads.
func (s *Scenario) MarshalJSON() ([]byte, error) {
	out := jsonScenario{Name: s.Name, InitialDown: s.InitialDown, Checkpoint: wireCheckpoint(s.Checkpoint), Belief: wireBelief(s.Belief), Failover: wireFailover(s.Failover)}
	for _, e := range s.Events {
		je := jsonEvent{Tick: e.Tick, Kind: e.Kind.String(), Machine: e.Machine}
		switch e.Kind {
		case Fail:
			je.Policy = e.Policy.String()
		case Degrade:
			f := e.Factor
			je.Factor = &f
		case Drift:
			from, to := e.From, e.Factor
			je.Until, je.From, je.To, je.Steps = e.Until, &from, &to, e.Steps
		case DCFail:
			dc := e.DC
			je.Machine, je.DC, je.Policy = 0, &dc, e.Policy.String()
		case DCRecover:
			dc := e.DC
			je.Machine, je.DC = 0, &dc
		}
		out.Events = append(out.Events, je)
	}
	for _, b := range s.Bursts {
		out.Bursts = append(out.Bursts, jsonBurst{Start: b.Start, End: b.End, Factor: b.Factor})
	}
	return json.Marshal(out)
}
