// Package telemetry is the observability layer for the simulator and the
// cluster engine: a registry of counters, gauges, and fixed-bucket
// histograms, a tick-driven sampler that turns the registry into bounded
// time-series rows, span-style phase timers, and Prometheus/JSON/CSV
// export surfaces.
//
// A counter holds no count: it is a read function over a tally its owner
// keeps anyway, called when the sampler records a row or a snapshot is
// taken. The owner stays the one store of every count, so a counter cannot
// drift from what the owner reports, and a snapshot taken between sample
// boundaries reads every counter live. Gauges are levels the owner sets
// just before each row.
//
// The contract that makes probes safe to leave in hot paths is
// zero-cost-when-disabled: every handle method is a nil-receiver no-op, so
// a nil *Registry hands out nil handles, ignores counter registration, and
// the instrumented code runs the exact same instructions (an inlined nil
// check) with zero allocations and zero behavior change. Goldens and
// allocation baselines recorded with telemetry off therefore stay
// byte-identical.
//
// The contract that keeps parallel drivers deterministic is sharding:
// handles and read functions are NOT synchronized. Each goroutine owns its
// own Registry (the engine shard, one shard per DC simulator), whose read
// functions read only that goroutine's state, and ticks its own sampler
// from its own event sequence; shards are only read or merged at barriers,
// when the owning goroutine is quiescent. No hot-path atomics, nothing for
// the race detector to find.
package telemetry

// Kind distinguishes scalar metric flavors in snapshots and export.
type Kind int

const (
	// KindCounter is a monotonically increasing event count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous level that can move both ways.
	KindGauge
)

func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Gauge holds an instantaneous level. A nil gauge ignores every call.
type Gauge struct{ v float64 }

// Set overwrites the gauge (no-op on a nil receiver).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket histogram: counts[i] tallies observations
// v <= bounds[i], and the final bucket is the implicit +Inf overflow.
// Buckets are fixed at registration; Observe is a linear scan over a
// handful of bounds — no allocation, no atomics, nil-safe.
type Histogram struct {
	name   string
	help   string
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

// Observe records one value (no-op on a nil receiver).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

type scalar struct {
	name  string
	help  string
	kind  Kind
	count func() int64 // KindCounter: the owner's read function
	gauge *Gauge       // KindGauge
}

func (s *scalar) value() float64 {
	if s.kind == KindCounter {
		return float64(s.count())
	}
	return s.gauge.Value()
}

// Registry owns one shard's metrics. It is not synchronized: exactly one
// goroutine registers, updates, and snapshots it, and other goroutines may
// only look via Snapshot results taken at barriers. A nil *Registry is the
// disabled state — every method returns nil handles or zero snapshots.
type Registry struct {
	scalars []*scalar
	hists   []*Histogram
	names   map[string]bool
}

// NewRegistry builds an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) claim(name string) {
	if name == "" || r.names[name] {
		panic("telemetry: duplicate or empty metric name " + name)
	}
	r.names[name] = true
}

// Counter registers a counter whose value is count(), read each time the
// sampler records a row or a snapshot is taken. count must read state the
// registry's owning goroutine owns. No-op on a nil registry; panics on a
// duplicate name, which is a programming error.
func (r *Registry) Counter(name, help string, count func() int64) {
	if r == nil {
		return
	}
	r.claim(name)
	r.scalars = append(r.scalars, &scalar{name: name, help: help, kind: KindCounter, count: count})
}

// Gauge registers a gauge. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.claim(name)
	g := &Gauge{}
	r.scalars = append(r.scalars, &scalar{name: name, help: help, kind: KindGauge, gauge: g})
	return g
}

// Histogram registers a fixed-bucket histogram with the given ascending
// upper bounds (the +Inf overflow bucket is implicit). Returns nil on a
// nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.claim(name)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending: " + name)
		}
	}
	h := &Histogram{name: name, help: help, bounds: append([]float64(nil), bounds...), counts: make([]int64, len(bounds)+1)}
	r.hists = append(r.hists, h)
	return h
}

// ScalarNames returns the registered scalar names in registration order —
// the sampler's column schema. Nil-safe.
func (r *Registry) ScalarNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.scalars))
	for i, s := range r.scalars {
		names[i] = s.name
	}
	return names
}

// scalarValues appends the current scalar values in registration order.
func (r *Registry) scalarValues(into []float64) []float64 {
	for _, s := range r.scalars {
		into = append(into, s.value())
	}
	return into
}

// ScalarValue is one scalar's state inside a Snapshot.
type ScalarValue struct {
	Name  string
	Help  string
	Kind  Kind
	Value float64
}

// HistValue is one histogram's state inside a Snapshot.
type HistValue struct {
	Name   string
	Help   string
	Bounds []float64
	Counts []int64
	Sum    float64
	Count  int64
}

// Snapshot is a self-contained copy of a registry's state, safe to hand
// across goroutines once taken. Take it only while the owning goroutine is
// quiescent (at a barrier, or from the owner itself).
type Snapshot struct {
	Scalars []ScalarValue
	Hists   []HistValue
}

// Snapshot copies the registry state. Nil-safe: a nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	snap := Snapshot{
		Scalars: make([]ScalarValue, len(r.scalars)),
		Hists:   make([]HistValue, len(r.hists)),
	}
	for i, s := range r.scalars {
		snap.Scalars[i] = ScalarValue{Name: s.name, Help: s.help, Kind: s.kind, Value: s.value()}
	}
	for i, h := range r.hists {
		snap.Hists[i] = HistValue{
			Name:   h.name,
			Help:   h.help,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			Sum:    h.sum,
			Count:  h.n,
		}
	}
	return snap
}

// Options configures telemetry for a simulator or cluster engine. A nil
// *Options disables telemetry entirely (nil registries everywhere).
type Options struct {
	// SampleEvery is the simulated-tick interval between sampler rows;
	// 0 means DefaultSampleEvery.
	SampleEvery int64
	// RingCap bounds the retained rows per sampler; 0 means
	// DefaultRingCap. The ring keeps the most recent rows.
	RingCap int
}

// Defaults for Options zero fields.
const (
	DefaultSampleEvery = 100
	DefaultRingCap     = 4096
)

// Every resolves the sampling interval, nil-safe.
func (o *Options) Every() int64 {
	if o == nil || o.SampleEvery <= 0 {
		return DefaultSampleEvery
	}
	return o.SampleEvery
}

// Ring resolves the ring capacity, nil-safe.
func (o *Options) Ring() int {
	if o == nil || o.RingCap <= 0 {
		return DefaultRingCap
	}
	return o.RingCap
}
