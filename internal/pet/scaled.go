package pet

import (
	"sync"

	"taskprune/internal/pmf"
	"taskprune/internal/task"
)

// This file serves degradation-scaled views of the PET matrix. A machine
// running under a scenario-injected performance degradation factor f takes
// f× longer per task, so every consumer of its column — mapping heuristics,
// queue-chain walks, the pruner — must see execution-time distributions with
// their ticks stretched by f. Scaled entries are derived lazily and cached
// per (type, machine, factor): a scenario flips each machine through a
// handful of factors, so the cache stays tiny while keeping the hot path
// allocation-free. Factor 1 bypasses the cache entirely and returns the
// nominal entry, keeping scenario-free runs bit-identical and lock-free.

// scaledKey identifies one derived entry.
type scaledKey struct {
	t      task.Type
	mi     int
	factor float64
}

// scaledCache is the lazily populated store of degradation-scaled entries.
// The PET matrix is shared across concurrently running trials, so the cache
// is guarded by an RWMutex (reads vastly outnumber the first-miss writes).
type scaledCache struct {
	mu      sync.RWMutex
	entries map[scaledKey]*Entry
}

// ScaledEntry returns the entry of type t on machine mi with execution time
// stretched by factor (the machine's current speed factor; 1 = nominal).
func (m *Matrix) ScaledEntry(t task.Type, mi int, factor float64) *Entry {
	if factor == 1 {
		return &m.entries[t][mi]
	}
	key := scaledKey{t: t, mi: mi, factor: factor}
	m.scaled.mu.RLock()
	e := m.scaled.entries[key]
	m.scaled.mu.RUnlock()
	if e != nil {
		return e
	}
	m.scaled.mu.Lock()
	defer m.scaled.mu.Unlock()
	if e = m.scaled.entries[key]; e != nil { // lost the race; reuse the winner
		return e
	}
	base := m.entries[t][mi]
	p := pmf.ScaleTicks(base.PMF, factor)
	// Mean/Shape describe the ground-truth gamma of the degraded machine:
	// slowing a machine by f scales the gamma mean linearly and leaves its
	// shape untouched. As with nominal entries, this ground truth differs
	// from the profiled PMF's mean (here additionally by ScaleTicks' ceil
	// rounding) — consumers of the estimate use Prof.Mean().
	e = &Entry{PMF: p, Prof: pmf.NewProfile(p), Mean: base.Mean * factor, Shape: base.Shape}
	if m.scaled.entries == nil {
		m.scaled.entries = make(map[scaledKey]*Entry)
	}
	m.scaled.entries[key] = e
	return e
}

// ScaledPMF returns the execution-time PMF of type t on machine mi under the
// given speed factor.
func (m *Matrix) ScaledPMF(t task.Type, mi int, factor float64) *pmf.PMF {
	if factor == 1 {
		return m.entries[t][mi].PMF
	}
	return m.ScaledEntry(t, mi, factor).PMF
}

// ScaledProfile returns the prefix-sum profile of type t on machine mi under
// the given speed factor.
func (m *Matrix) ScaledProfile(t task.Type, mi int, factor float64) *pmf.Profile {
	if factor == 1 {
		return m.entries[t][mi].Prof
	}
	return m.ScaledEntry(t, mi, factor).Prof
}
