package telemetry

// Sampler turns a registry into time-series rows on the simulated clock.
// The owner calls Tick(now) after processing each event; whenever the
// clock crosses a multiple of the sampling interval the sampler calls the
// Prepare hook (so lazily maintained gauges can be refreshed) and records
// one row of every scalar's value, stamped with the boundary tick — not
// the event tick — so rows are a function of simulated time alone. That
// makes sampler output exactly as deterministic as the event sequence
// driving it: the parallel cluster drivers replay identical per-shard
// event sequences, so their rows are byte-identical to sequential ones.
//
// Rows live in a bounded ring that keeps the most recent RingCap rows and
// counts what it evicted; row storage is reused after the ring wraps, so
// steady-state sampling allocates nothing.
type Sampler struct {
	reg   *Registry
	every int64
	next  int64

	// Prepare, when set, runs just before each row is recorded; owners
	// use it to refresh gauges that are too hot to maintain per event
	// (queue depths, arrival rates). Counters need no refresh: the row
	// reads them from their owner's store.
	Prepare func()
	// OnSample, when set, runs after each row is recorded with the
	// boundary tick — the publish hook for live export.
	OnSample func(tick int64)

	rows    [][]float64 // ring storage: row = [tick, scalars...]
	cap     int
	head    int // index of oldest row
	n       int // live rows
	evicted int64
	last    int64 // tick of the most recent row (-1: none yet)
}

// NewSampler builds a sampler over reg. Nil-safe: a nil registry yields a
// nil sampler, whose methods are all no-ops.
func NewSampler(reg *Registry, opts *Options) *Sampler {
	if reg == nil {
		return nil
	}
	every := opts.Every()
	return &Sampler{reg: reg, every: every, next: every, cap: opts.Ring(), last: -1}
}

// Every returns the sampling interval (0 on a nil receiver).
func (s *Sampler) Every() int64 {
	if s == nil {
		return 0
	}
	return s.every
}

// Tick advances the sampler to the simulated time now, recording one row
// per crossed boundary. No-op on a nil receiver.
func (s *Sampler) Tick(now int64) {
	if s == nil {
		return
	}
	for s.next <= now {
		if s.Prepare != nil {
			s.Prepare()
		}
		s.record(s.next)
		if s.OnSample != nil {
			s.OnSample(s.next)
		}
		s.next += s.every
	}
}

// Flush records one final row at now unless a row for now already exists —
// the end-of-run snapshot that captures totals even when the run ends
// between boundaries. Idempotent; no-op on a nil receiver.
func (s *Sampler) Flush(now int64) {
	if s == nil {
		return
	}
	s.Tick(now)
	if s.last == now {
		return // a row for this tick already exists
	}
	if s.Prepare != nil {
		s.Prepare()
	}
	s.record(now)
	if s.OnSample != nil {
		s.OnSample(now)
	}
	s.next = (now/s.every + 1) * s.every
}

func (s *Sampler) record(tick int64) {
	var slot int
	if s.n < s.cap {
		// Still growing: head is 0 until the first eviction, so the
		// next free slot is simply index n. Allocate the row at its
		// final width up front — one allocation per row instead of a
		// cascade of append growths.
		s.rows = append(s.rows, make([]float64, 0, 1+len(s.reg.names)))
		slot = s.n
		s.n++
	} else {
		// Full: reuse the oldest row's storage and advance the ring.
		slot = s.head
		s.head = (s.head + 1) % s.cap
		s.evicted++
	}
	row := append(s.rows[slot][:0], float64(tick))
	s.rows[slot] = s.reg.scalarValues(row)
	s.last = tick
}

// Len returns the number of retained rows.
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Evicted returns how many rows the bounded ring dropped (oldest-first).
func (s *Sampler) Evicted() int64 {
	if s == nil {
		return 0
	}
	return s.evicted
}

// Columns returns the row schema: "tick" followed by the registry's scalar
// names. Nil-safe.
func (s *Sampler) Columns() []string {
	if s == nil {
		return nil
	}
	return append([]string{"tick"}, s.reg.ScalarNames()...)
}

// Row returns retained row i (0 = oldest) without copying; the slice is
// owned by the ring and valid until the next Tick.
func (s *Sampler) Row(i int) []float64 {
	return s.rows[(s.head+i)%s.cap]
}
