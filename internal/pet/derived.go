package pet

import (
	"sync"

	"taskprune/internal/pmf"
	"taskprune/internal/task"
)

// This file serves the derived views of the PET matrix. A machine running
// under a scenario-injected performance degradation factor f takes f×
// longer per task, so every consumer of its column — mapping heuristics,
// queue-chain walks, the pruner — must see execution-time distributions
// with their ticks stretched by f. A task resuming from a checkpoint has
// already banked consumed ticks of progress, so every estimate of it must
// use the (stretched) distribution conditioned on having survived that
// long — PMF.RemainingAfter. Both kinds are derived lazily into one cache
// keyed by (type, machine, factor, consumed): a scenario flips each machine
// through a handful of factors and checkpoint intervals quantize consumed
// progress to a handful of multiples, so the cache stays small while the
// hot path stays allocation-free. Factor 1 with consumed 0 bypasses the
// cache entirely and returns the nominal entry, keeping scenario- and
// checkpoint-free runs bit-identical and lock-free.

// derivedKey identifies one derived entry. consumed is the *nominal*
// banked progress (task.Task.Consumed); Entry scales it into the factor's
// time base internally, so the key stays a pure function of what callers
// know without pre-scaling.
type derivedKey struct {
	t        task.Type
	mi       int
	factor   float64
	consumed int64
}

// derivedCache is the lazily populated store of derived entries. The PET
// matrix is shared across concurrently running trials, so the cache is
// guarded by an RWMutex (reads vastly outnumber the first-miss writes).
type derivedCache struct {
	mu          sync.RWMutex
	entries     map[derivedKey]*Entry
	conditioned int // stored entries with consumed > 0
}

// maxConditionedEntries bounds the conditioned (consumed > 0) entries the
// cache stores. Periodic checkpoint intervals quantize consumed values to a
// handful of multiples, but replication-lag credits (banked progress minus
// the lag) are arbitrary ticks — and the Matrix outlives every trial of an
// experiment — so past this bound a conditioned miss builds a transient
// entry instead of storing it, trading a rare recomputation for bounded
// memory. Scaled entries (consumed 0) are few and always stored.
const maxConditionedEntries = 4096

// Entry returns the entry of type t on machine mi with execution time
// stretched by factor (the machine's current speed factor; 1 = nominal),
// conditioned on the task having already banked consumed *nominal* ticks
// of progress (X−c' | X>c' where c' = ScaleDur(consumed, factor) is the
// progress re-expressed in the factor's time base). Consumed <= 0 is the
// unconditioned entry; factor 1 with consumed <= 0 is the nominal entry
// itself.
func (m *Matrix) Entry(t task.Type, mi int, factor float64, consumed int64) *Entry {
	if consumed < 0 {
		consumed = 0
	}
	if factor == 1 && consumed == 0 {
		return &m.entries[t][mi]
	}
	return m.cached(derivedKey{t: t, mi: mi, factor: factor, consumed: consumed})
}

// cached returns the derived entry key names, building it on a miss and
// storing it unless it is a conditioned entry past the bound. It is kept
// out of Entry so that the nominal lookup, which every mapping decision
// makes per (task, machine) pair, pays for no lock or deferred unlock.
func (m *Matrix) cached(key derivedKey) *Entry {
	c := &m.derived
	c.mu.RLock()
	e := c.entries[key]
	c.mu.RUnlock()
	if e != nil {
		return e
	}
	// Built outside the write lock: a conditioned entry looks up its scaled
	// base through Entry, which may take the lock itself.
	e = m.derive(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if won := c.entries[key]; won != nil { // lost the race; reuse the winner
		return won
	}
	if key.consumed > 0 {
		if c.conditioned >= maxConditionedEntries {
			return e
		}
		c.conditioned++
	}
	if c.entries == nil {
		c.entries = make(map[derivedKey]*Entry)
	}
	c.entries[key] = e
	return e
}

// derive builds the entry key names: the nominal PMF stretched by the
// factor, or the scaled entry of the same factor conditioned on the banked
// progress. A derived entry has no ground-truth gamma behind it, so it
// carries no Mean or Shape; its profiled mean is Prof.Mean().
func (m *Matrix) derive(k derivedKey) *Entry {
	var p *pmf.PMF
	if k.consumed > 0 {
		p = m.Entry(k.t, k.mi, k.factor, 0).PMF.RemainingAfter(pmf.ScaleDur(k.consumed, k.factor))
	} else {
		p = pmf.ScaleTicks(m.entries[k.t][k.mi].PMF, k.factor)
	}
	return &Entry{PMF: p, Prof: pmf.NewProfile(p)}
}
