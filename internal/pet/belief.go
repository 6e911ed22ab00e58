package pet

import (
	"taskprune/internal/pmf"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// This file holds the imperfect-knowledge Views. The Matrix itself is the
// oracle belief (belief ≡ truth); FrozenBelief schedules on the nominal
// t=0 profile forever, and OnlineBelief re-learns per-cell PMFs from
// observed completions. Neither is safe for concurrent use — unlike the
// Matrix, which is shared across a whole experiment's trials, a belief is
// owned by exactly one simulator goroutine, so its caches take no locks.

// FrozenBelief serves the ground-truth matrix as it looked at t=0: every
// lookup ignores the machine's reported degradation factor and answers
// with the nominal (factor-1) entry. Under a static scenario this is
// indistinguishable from the oracle; under degrade/drift events it is the
// stale-PET mapper the robustness study measures — the truth moves, the
// belief does not.
type FrozenBelief struct {
	truth *Matrix
}

// NewFrozenBelief pins a belief to truth's t=0 nominal profile.
func NewFrozenBelief(truth *Matrix) *FrozenBelief {
	return &FrozenBelief{truth: truth}
}

// Entry conditions the nominal entry on consumed nominal ticks, whatever
// the factor.
func (b *FrozenBelief) Entry(t task.Type, mi int, factor float64, consumed int64) *Entry {
	return b.truth.Entry(t, mi, 1, consumed)
}

var _ View = (*FrozenBelief)(nil)

// onlineCell is one (task type, machine) estimator: a streaming histogram
// of observed wall-clock execution durations plus the PMF most recently
// rebuilt from it. Until the sample floor is met the cell is unlearned and
// lookups fall back to the prior.
type onlineCell struct {
	hist         *stats.StreamHist
	entry        *Entry           // learned entry; nil until minSamples reached
	sinceRebuild int              // observations since entry was last rebuilt
	remaining    map[int64]*Entry // learned entry conditioned per scaled-consumed
}

// maxOnlineRemaining bounds each cell's conditioned cache; it is cleared
// wholesale on every rebuild anyway, so the bound only matters within one
// refresh window.
const maxOnlineRemaining = 64

// OnlineBelief re-estimates the PET from observed completions. Each
// (type, machine) cell streams full-execution wall durations into a
// bounded StreamHist; once a cell has minSamples observations its belief
// PMF is rebuilt from the histogram — and rebuilt again every refresh
// observations thereafter — replacing the prior for every lookup of that
// cell. Because observed durations are wall-clock they already embody
// whatever degradation the machine actually suffers, so learned lookups
// ignore the reported factor the way FrozenBelief does; the difference is
// that here the belief converges to the moved truth instead of staying at
// t=0. Unlearned cells serve the prior's nominal entries, making a cold
// OnlineBelief behave exactly like a FrozenBelief of its prior.
//
// Not safe for concurrent use: one instance per simulator.
type OnlineBelief struct {
	prior        *Matrix
	refresh      int // observations between rebuilds of a learned cell
	minSamples   int // observations before a cell's first rebuild
	bins         int // StreamHist bins per cell
	cells        [][]onlineCell
	observations int64 // total observations fed
	refreshes    int64 // total cell rebuilds
}

// NewOnlineBelief returns a cold online belief over prior's shape.
// refresh, minSamples, and bins must be positive.
func NewOnlineBelief(prior *Matrix, refresh, minSamples, bins int) *OnlineBelief {
	if refresh <= 0 || minSamples <= 0 || bins < 2 {
		panic("pet: OnlineBelief needs positive refresh/minSamples and at least two bins")
	}
	cells := make([][]onlineCell, prior.NumTypes())
	for t := range cells {
		cells[t] = make([]onlineCell, prior.NumMachines())
	}
	return &OnlineBelief{prior: prior, refresh: refresh, minSamples: minSamples, bins: bins, cells: cells}
}

// Observe feeds one completed full execution of type tt on machine mi that
// took wall ticks of machine time (net of checkpoint pauses, no banked
// prior progress). It reports whether the cell's belief PMF was rebuilt —
// the caller's cue to invalidate per-machine evaluation caches.
func (b *OnlineBelief) Observe(tt task.Type, mi int, wall int64) bool {
	c := &b.cells[tt][mi]
	if c.hist == nil {
		c.hist = stats.NewStreamHist(b.bins)
	}
	c.hist.Add(float64(wall))
	c.sinceRebuild++
	b.observations++
	if c.hist.Count() < int64(b.minSamples) {
		return false
	}
	if c.entry != nil && c.sinceRebuild < b.refresh {
		return false
	}
	p := pmf.FromHistogram(c.hist.Snapshot())
	c.entry = &Entry{PMF: p, Prof: pmf.NewProfile(p)}
	c.remaining = nil
	c.sinceRebuild = 0
	b.refreshes++
	return true
}

// Entry returns the learned entry for the cell, or the prior's nominal
// entry while the cell is unlearned, conditioned on consumed nominal ticks
// of banked progress. The learned distribution is in wall ticks and
// already absorbs the machine's true degradation, so the reported factor
// is ignored — except that the nominal progress is re-expressed through it
// before conditioning. Conditioned entries are cached per cell until the
// next rebuild discards them.
func (b *OnlineBelief) Entry(t task.Type, mi int, factor float64, consumed int64) *Entry {
	c := &b.cells[t][mi]
	if c.entry == nil {
		return b.prior.Entry(t, mi, 1, consumed)
	}
	if consumed <= 0 {
		return c.entry
	}
	scaled := pmf.ScaleDur(consumed, factor)
	if e := c.remaining[scaled]; e != nil {
		return e
	}
	p := c.entry.PMF.RemainingAfter(scaled)
	e := &Entry{PMF: p, Prof: pmf.NewProfile(p)}
	if len(c.remaining) < maxOnlineRemaining {
		if c.remaining == nil {
			c.remaining = make(map[int64]*Entry)
		}
		c.remaining[scaled] = e
	}
	return e
}

// Observations returns how many completions have been fed in (0 on a nil
// receiver: a frozen or oracle belief observes nothing).
func (b *OnlineBelief) Observations() int64 {
	if b == nil {
		return 0
	}
	return b.observations
}

// Refreshes returns how many cell rebuilds those observations triggered
// (0 on a nil receiver).
func (b *OnlineBelief) Refreshes() int64 {
	if b == nil {
		return 0
	}
	return b.refreshes
}

// CellMean returns the believed mean execution of type t on machine mi —
// the learned mean once the cell has rebuilt, the prior's nominal mean
// before — plus whether the cell is learned. Convergence tests compare it
// against the moved truth.
func (b *OnlineBelief) CellMean(t task.Type, mi int) (mean float64, learned bool) {
	if e := b.cells[t][mi].entry; e != nil {
		return e.Prof.Mean(), true
	}
	return b.prior.Entry(t, mi, 1, 0).Prof.Mean(), false
}

var _ View = (*OnlineBelief)(nil)
