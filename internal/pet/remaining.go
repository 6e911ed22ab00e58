package pet

import (
	"sync"

	"taskprune/internal/pmf"
	"taskprune/internal/task"
)

// This file serves remaining-work views of the PET matrix for restored
// tasks: a task resuming from a checkpoint has already banked `consumed`
// ticks of progress, so every mapping-time estimate of it must use the
// execution-time distribution conditioned on having survived that long —
// PMF.RemainingAfter on the (degradation-scaled) entry. Conditioned entries
// are derived lazily and cached per (type, machine, factor, consumed):
// checkpoint intervals quantize consumed progress to a handful of
// multiples, so the cache stays tiny while keeping the mapping hot path
// allocation-free. Consumed 0 bypasses the cache entirely and returns the
// scaled entry, keeping checkpoint-free runs bit-identical and lock-free.

// remainingKey identifies one conditioned entry. consumed is the *nominal*
// banked progress (task.Task.Consumed); RemainingEntry scales it into the
// factor's time base internally, so the key stays a pure function of what
// callers know without pre-scaling.
type remainingKey struct {
	t        task.Type
	mi       int
	factor   float64
	consumed int64
}

// remainingCache is the lazily populated store of conditioned entries; like
// scaledCache it is shared across concurrently running trials, so reads
// take an RWMutex.
type remainingCache struct {
	mu      sync.RWMutex
	entries map[remainingKey]*Entry
}

// maxRemainingEntries bounds the cache. Periodic checkpoint intervals
// quantize consumed values to a handful of multiples, but replication-lag
// credits (banked progress minus the lag) are arbitrary ticks — and the
// Matrix outlives every trial of an experiment — so past this bound a miss
// builds a transient entry instead of storing it, trading a rare
// recomputation for bounded memory.
const maxRemainingEntries = 4096

// RemainingEntry returns the entry of type t on machine mi under speed
// factor, conditioned on the task having already banked consumed *nominal*
// ticks of progress (X−c' | X>c' where c' = ScaleDur(consumed, factor) is
// the progress re-expressed in the factor's time base). Consumed <= 0 is
// exactly ScaledEntry. The returned entry's Mean/Shape carry the
// conditioned PMF's mean (there is no ground-truth gamma for a conditioned
// view).
func (m *Matrix) RemainingEntry(t task.Type, mi int, factor float64, consumed int64) *Entry {
	if consumed <= 0 {
		return m.ScaledEntry(t, mi, factor)
	}
	key := remainingKey{t: t, mi: mi, factor: factor, consumed: consumed}
	m.remaining.mu.RLock()
	e := m.remaining.entries[key]
	m.remaining.mu.RUnlock()
	if e != nil {
		return e
	}
	m.remaining.mu.Lock()
	defer m.remaining.mu.Unlock()
	if e = m.remaining.entries[key]; e != nil { // lost the race; reuse the winner
		return e
	}
	base := m.ScaledEntry(t, mi, factor)
	p := base.PMF.RemainingAfter(pmf.ScaleDur(consumed, factor))
	e = &Entry{PMF: p, Prof: pmf.NewProfile(p), Mean: p.Mean(), Shape: base.Shape}
	if len(m.remaining.entries) < maxRemainingEntries {
		if m.remaining.entries == nil {
			m.remaining.entries = make(map[remainingKey]*Entry)
		}
		m.remaining.entries[key] = e
	}
	return e
}
