package scenario

// This file declares the belief policy: what the mapper *knows* about
// execution times, as opposed to what is true. The ground-truth PET matrix
// always drives sampled executions and completion clocks; the belief policy
// selects the View every pruning and mapping decision reads. It is part of
// the scenario wire format so robustness studies can declare the knowledge
// model next to the drift/degrade events that invalidate it — the paper's
// robustness figures assume an oracle scheduler, and this knob measures
// what that assumption is worth.

import "fmt"

// BeliefKind selects the mapper's knowledge model.
type BeliefKind int

const (
	// BeliefOracle schedules on the ground truth itself (belief ≡ truth),
	// byte-identical to the engine without the subsystem.
	BeliefOracle BeliefKind = iota
	// BeliefFrozen pins the belief at the t=0 nominal PET: degrade/drift
	// events move the truth but every decision still reads the original
	// profile — the stale-PET mapper.
	BeliefFrozen
	// BeliefOnline starts from the t=0 profile and re-estimates each
	// (type, machine) distribution from observed completions via a
	// streaming histogram, rebuilding a cell's PMF once MinSamples
	// observations accumulate and every Refresh observations thereafter.
	BeliefOnline
)

// String implements fmt.Stringer.
func (k BeliefKind) String() string {
	switch k {
	case BeliefOracle:
		return "oracle"
	case BeliefFrozen:
		return "frozen"
	case BeliefOnline:
		return "online"
	default:
		return fmt.Sprintf("BeliefKind(%d)", int(k))
	}
}

// Defaults for the online estimator's knobs when left zero.
const (
	// DefaultBeliefRefresh is the observation cadence between rebuilds of
	// an already-learned cell.
	DefaultBeliefRefresh = 25
	// DefaultBeliefMinSamples is the observation floor before a cell's
	// first rebuild replaces the prior.
	DefaultBeliefMinSamples = 10
	// DefaultBeliefBins is the per-cell streaming-histogram resolution,
	// matching pet.DefaultBuildConfig's offline profiling bins.
	DefaultBeliefBins = 32
)

// BeliefPolicy is the full knowledge-model specification. The zero value
// (and nil) is the oracle: scheduling on ground truth, exactly today's
// engine.
type BeliefPolicy struct {
	// Kind selects the knowledge model.
	Kind BeliefKind
	// Refresh is the observation cadence between rebuilds of a learned
	// cell (BeliefOnline only; 0 means DefaultBeliefRefresh).
	Refresh int
	// MinSamples is the per-cell observation floor before the first
	// rebuild (BeliefOnline only; 0 means DefaultBeliefMinSamples).
	MinSamples int
	// Bins is the per-cell streaming-histogram bin count (BeliefOnline
	// only; 0 means DefaultBeliefBins).
	Bins int
}

// Enabled reports whether the policy replaces the oracle view (nil-safe).
func (p *BeliefPolicy) Enabled() bool { return p != nil && p.Kind != BeliefOracle }

// EffectiveRefresh resolves the rebuild cadence, applying the default.
func (p *BeliefPolicy) EffectiveRefresh() int {
	if p == nil || p.Refresh == 0 {
		return DefaultBeliefRefresh
	}
	return p.Refresh
}

// EffectiveMinSamples resolves the sample floor, applying the default.
func (p *BeliefPolicy) EffectiveMinSamples() int {
	if p == nil || p.MinSamples == 0 {
		return DefaultBeliefMinSamples
	}
	return p.MinSamples
}

// EffectiveBins resolves the histogram resolution, applying the default.
func (p *BeliefPolicy) EffectiveBins() int {
	if p == nil || p.Bins == 0 {
		return DefaultBeliefBins
	}
	return p.Bins
}

// Validate rejects malformed policies: the estimator knobs must be
// positive when set and are meaningless outside the online kind
// (nil-safe).
func (p *BeliefPolicy) Validate() error {
	if p == nil {
		return nil
	}
	switch p.Kind {
	case BeliefOracle, BeliefFrozen, BeliefOnline:
	default:
		return fmt.Errorf("belief: unknown kind %d", int(p.Kind))
	}
	if p.Kind != BeliefOnline && (p.Refresh != 0 || p.MinSamples != 0 || p.Bins != 0) {
		return fmt.Errorf("belief: refresh/min_samples/bins only apply to the online kind (got kind %s, refresh %d, min_samples %d, bins %d)", p.Kind, p.Refresh, p.MinSamples, p.Bins)
	}
	if p.Refresh < 0 {
		return fmt.Errorf("belief: negative refresh %d", p.Refresh)
	}
	if p.MinSamples < 0 {
		return fmt.Errorf("belief: negative min_samples %d", p.MinSamples)
	}
	if p.Bins < 0 {
		return fmt.Errorf("belief: negative bins %d", p.Bins)
	}
	if p.Bins == 1 {
		return fmt.Errorf("belief: online estimator needs at least two bins, got %d", p.Bins)
	}
	return nil
}

// String renders the policy compactly for reports and errors.
func (p *BeliefPolicy) String() string {
	if !p.Enabled() {
		return "belief=oracle"
	}
	if p.Kind == BeliefFrozen {
		return "belief=frozen"
	}
	return fmt.Sprintf("belief=online/refresh %d/floor %d", p.EffectiveRefresh(), p.EffectiveMinSamples())
}

// jsonBelief is the wire form of a BeliefPolicy.
type jsonBelief struct {
	Kind       string `json:"kind"`
	Refresh    int    `json:"refresh,omitempty"`
	MinSamples int    `json:"min_samples,omitempty"`
	Bins       int    `json:"bins,omitempty"`
}

// parseBelief decodes the wire form, rejecting unknown kinds (the knob
// fields are integers, so the JSON layer already rejects non-numeric
// values).
func parseBelief(jb *jsonBelief) (*BeliefPolicy, error) {
	if jb == nil {
		return nil, nil
	}
	p := &BeliefPolicy{Refresh: jb.Refresh, MinSamples: jb.MinSamples, Bins: jb.Bins}
	switch jb.Kind {
	case "oracle":
		p.Kind = BeliefOracle
	case "frozen":
		p.Kind = BeliefFrozen
	case "online":
		p.Kind = BeliefOnline
	default:
		return nil, fmt.Errorf("scenario: belief has unknown kind %q", jb.Kind)
	}
	return p, nil
}

// wireBelief encodes the policy back into its wire form (nil for nil).
func wireBelief(p *BeliefPolicy) *jsonBelief {
	if p == nil {
		return nil
	}
	return &jsonBelief{
		Kind:       p.Kind.String(),
		Refresh:    p.Refresh,
		MinSamples: p.MinSamples,
		Bins:       p.Bins,
	}
}
