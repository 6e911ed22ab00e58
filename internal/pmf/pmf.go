// Package pmf implements the discrete probability-mass-function algebra at
// the heart of the paper: Probabilistic Execution Time (PET) entries and
// Probabilistic Completion Time (PCT) distributions are PMFs over integer
// time ticks, combined by convolution — including the paper's Eqs. 2–5
// closed forms for convolution in the presence of task dropping.
//
// A PMF is stored densely: a start tick plus a contiguous slice of
// probabilities. All operations preserve total mass up to floating-point
// rounding; invariants are exercised by property-based tests.
package pmf

import (
	"fmt"
	"math"
	"strings"

	"taskprune/internal/stats"
)

// PMF is a probability mass function over integer time ticks.
// The zero value is an empty PMF with no mass.
type PMF struct {
	start int64
	probs []float64
	// nz, when non-nil, lists the offsets of all non-zero probabilities in
	// ascending order. Compact populates it (a compacted PMF has few
	// impulses spread over a wide dense support, so scans that honor nz
	// skip the interior zeros); any mutation that can change the zero
	// pattern resets it to nil. Scaling (Normalize) preserves it.
	nz []int32
}

// New builds a PMF whose first impulse sits at start. The probs slice is
// copied; leading and trailing zeros are trimmed. Negative probabilities
// panic: they can only arise from a programming error.
func New(start int64, probs []float64) *PMF {
	lo := 0
	for lo < len(probs) && probs[lo] == 0 {
		lo++
	}
	hi := len(probs)
	for hi > lo && probs[hi-1] == 0 {
		hi--
	}
	p := &PMF{start: start + int64(lo), probs: make([]float64, hi-lo)}
	copy(p.probs, probs[lo:hi])
	for _, v := range p.probs {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("pmf: invalid probability %v", v))
		}
	}
	return p
}

// wrap adopts probs without copying (callers hand over ownership),
// trimming zero edges in place. It skips the validation New performs and
// exists for hot paths that construct mass buffers themselves.
func wrap(start int64, probs []float64) *PMF {
	lo := 0
	for lo < len(probs) && probs[lo] == 0 {
		lo++
	}
	hi := len(probs)
	for hi > lo && probs[hi-1] == 0 {
		hi--
	}
	return &PMF{start: start + int64(lo), probs: probs[lo:hi]}
}

// Impulse returns a PMF with all mass concentrated at tick t.
func Impulse(t int64) *PMF {
	return &PMF{start: t, probs: []float64{1}}
}

// FromSamples bins real-valued samples into nbins histogram bins and
// converts the result into a PMF whose impulses sit at the rounded bin
// centers (minimum tick 1: an execution can never take zero time). This is
// the paper's offline PET-profiling step.
func FromSamples(samples []float64, nbins int) *PMF {
	h := stats.HistogramFromSamples(samples, nbins)
	return FromHistogram(h)
}

// FromHistogram converts a histogram into a PMF at rounded bin centers,
// merging bins that round to the same tick and clamping ticks below 1 up
// to 1.
func FromHistogram(h *stats.Histogram) *PMF {
	mass := map[int64]float64{}
	var lo, hi int64 = math.MaxInt64, math.MinInt64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		t := int64(math.Round(h.BinCenter(i)))
		if t < 1 {
			t = 1
		}
		mass[t] += c
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	if len(mass) == 0 {
		return &PMF{}
	}
	probs := make([]float64, hi-lo+1)
	for t, c := range mass {
		probs[t-lo] = c
	}
	p := New(lo, probs)
	p.Normalize()
	return p
}

// IsZero reports whether the PMF carries no mass.
func (p *PMF) IsZero() bool { return p == nil || len(p.probs) == 0 }

// Start returns the tick of the first (possibly zero-probability) impulse.
func (p *PMF) Start() int64 { return p.start }

// End returns the tick of the last impulse. For an empty PMF, End < Start.
func (p *PMF) End() int64 { return p.start + int64(len(p.probs)) - 1 }

// Len returns the number of stored impulse slots (dense width including
// interior zeros).
func (p *PMF) Len() int { return len(p.probs) }

// NumImpulses returns the number of non-zero impulses. Convolution cost is
// governed by this count, which is what Compact bounds.
func (p *PMF) NumImpulses() int {
	n := 0
	for _, v := range p.probs {
		if v != 0 {
			n++
		}
	}
	return n
}

// At returns the probability mass at tick t.
func (p *PMF) At(t int64) float64 {
	if p.IsZero() || t < p.start || t > p.End() {
		return 0
	}
	return p.probs[t-p.start]
}

// Mass returns the total probability mass (1.0 for a normalized PMF).
func (p *PMF) Mass() float64 {
	var s float64
	for _, v := range p.probs {
		s += v
	}
	return s
}

// Normalize scales the PMF in place so its mass is exactly 1. It is a
// no-op for an empty or zero-mass PMF.
func (p *PMF) Normalize() {
	m := p.Mass()
	if m == 0 || m == 1 {
		return
	}
	for i := range p.probs {
		p.probs[i] /= m
	}
}

// Clone returns an independent deep copy. The sparse index is copied too:
// sharing it would tie the clone to the original's arena block, and Clone
// is exactly the escape hatch for outliving an arena Reset.
func (p *PMF) Clone() *PMF {
	if p.IsZero() {
		return &PMF{}
	}
	q := &PMF{start: p.start, probs: make([]float64, len(p.probs))}
	copy(q.probs, p.probs)
	if p.nz != nil {
		q.nz = make([]int32, len(p.nz))
		copy(q.nz, p.nz)
	}
	return q
}

// CopyFrom makes dst an independent deep copy of src, reusing dst's
// backing storage when possible. It exists so long-lived caches (the
// heuristics tail memo) can snapshot arena-backed PMFs without allocating
// in the steady state.
func (dst *PMF) CopyFrom(src *PMF) {
	dst.start = src.start
	if cap(dst.probs) < len(src.probs) {
		dst.probs = make([]float64, len(src.probs))
	}
	dst.probs = dst.probs[:len(src.probs)]
	copy(dst.probs, src.probs)
	if src.nz == nil {
		dst.nz = nil
		return
	}
	if cap(dst.nz) < len(src.nz) {
		dst.nz = make([]int32, len(src.nz))
	}
	dst.nz = dst.nz[:len(src.nz)]
	copy(dst.nz, src.nz)
}

// FirstImpulseAt returns the tick of the first non-zero impulse at or
// after tick t, with ok false when no mass lies there. The heuristics tail
// memo uses it to detect when advancing the clock actually changes a
// conditioned completion distribution.
func (p *PMF) FirstImpulseAt(t int64) (tick int64, ok bool) {
	if p.IsZero() {
		return 0, false
	}
	i := int64(0)
	if t > p.start {
		i = t - p.start
	}
	for ; i < int64(len(p.probs)); i++ {
		if p.probs[i] != 0 {
			return p.start + i, true
		}
	}
	return 0, false
}

// Shift returns a copy of p translated by dt ticks. Shifting a PET by a
// task's start time yields its PCT on an idle machine.
func (p *PMF) Shift(dt int64) *PMF {
	q := p.Clone()
	q.start += dt
	return q
}

// CDF returns P(T <= t).
func (p *PMF) CDF(t int64) float64 {
	if p.IsZero() || t < p.start {
		return 0
	}
	end := t - p.start
	if end >= int64(len(p.probs)) {
		end = int64(len(p.probs)) - 1
	}
	var s float64
	for _, v := range p.probs[:end+1] {
		s += v
	}
	return s
}

// SuccessProb is the paper's Eq. 1: the probability that a completion-time
// PMF lands at or before the deadline. It is a synonym for CDF and exists
// to keep call sites legible.
func (p *PMF) SuccessProb(deadline int64) float64 { return p.CDF(deadline) }

// Mean returns the expected tick, 0 for an empty PMF. Mass and the
// weighted sum accumulate in one fused pass — each in its own accumulator,
// element order unchanged, so the result is bit-identical to the separate
// Mass() pass it replaces at half the memory traffic.
func (p *PMF) Mean() float64 {
	var m, s float64
	// Incrementing the tick as a float is exact — ticks stay integral and
	// far below 2^53 — and avoids a per-element int→float conversion.
	x := float64(p.start)
	for _, v := range p.probs {
		m += v
		s += v * x
		x++
	}
	if m == 0 {
		return 0
	}
	return s / m
}

// Skewness returns the (population) skewness of the distribution; 0 when
// undefined. The pruner consumes the bounded version via BoundedSkewness.
// It folds the mass-weighted moments straight off the dense support (total
// mass, then the mean, then the second and third central moments) and
// materializes no support slice — this runs once per queued task per
// pruning pass.
func (p *PMF) Skewness() float64 {
	if p.IsZero() {
		return 0
	}
	var w float64
	for _, v := range p.probs {
		w += v
	}
	if w == 0 {
		return 0
	}
	var mean float64
	for i, v := range p.probs {
		mean += v * float64(p.start+int64(i))
	}
	mean /= w
	var m2, m3 float64
	for i, v := range p.probs {
		d := float64(p.start+int64(i)) - mean
		m2 += v * d * d
		m3 += v * d * d * d
	}
	m2 /= w
	m3 /= w
	if m2 <= 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// BoundedSkewness returns Skewness clamped into [-1, 1], the paper's
// bounded skewness s used by the Eq. 7 per-task dropping threshold.
func (p *PMF) BoundedSkewness() float64 { return stats.BoundSkewness(p.Skewness()) }

// ConditionAtLeast returns the distribution of T given T >= t, renormalized.
// The simulator uses it for the remaining completion time of a task that
// has already been executing for some elapsed time. If no mass lies at or
// beyond t, the entire mass collapses onto an impulse at t (the task is
// "overdue" relative to its profile and is modeled as finishing now).
func (p *PMF) ConditionAtLeast(t int64) *PMF {
	if p.IsZero() {
		return &PMF{}
	}
	if t <= p.start {
		return p.Clone()
	}
	if t > p.End() {
		return Impulse(t)
	}
	probs := make([]float64, p.End()-t+1)
	copy(probs, p.probs[t-p.start:])
	q := New(t, probs)
	if q.Mass() == 0 {
		return Impulse(t)
	}
	q.Normalize()
	return q
}

// RemainingAfter returns the distribution of X - c given X > c, where p is
// the distribution of a duration X: the remaining execution time of a task
// that has already consumed c ticks. Checkpoint restore uses it to chain
// completion times of partially executed tasks. If no mass lies
// beyond c (the task has outrun its profile), the remainder collapses to a
// single tick.
func (p *PMF) RemainingAfter(c int64) *PMF {
	if c <= 0 {
		return p.Clone()
	}
	cond := p.ConditionAtLeast(c + 1)
	if cond.IsZero() {
		return Impulse(1)
	}
	return cond.Shift(-c)
}

// AddMass adds mass w at tick t, growing the support as needed.
func (p *PMF) AddMass(t int64, w float64) {
	if w == 0 {
		return
	}
	p.nz = nil
	if w < 0 {
		panic("pmf: AddMass with negative mass")
	}
	if len(p.probs) == 0 {
		p.start = t
		p.probs = []float64{w}
		return
	}
	switch {
	case t < p.start:
		grown := make([]float64, p.End()-t+1)
		copy(grown[p.start-t:], p.probs)
		p.probs = grown
		p.start = t
		p.probs[0] += w
	case t > p.End():
		grown := make([]float64, t-p.start+1)
		copy(grown, p.probs)
		p.probs = grown
		p.probs[t-p.start] += w
	default:
		p.probs[t-p.start] += w
	}
}

// String renders the PMF compactly for debugging: "{t:p t:p ...}".
func (p *PMF) String() string {
	if p.IsZero() {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, v := range p.probs {
		if v == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d:%.4g", p.start+int64(i), v)
	}
	b.WriteByte('}')
	return b.String()
}

// Impulses returns parallel slices of ticks and probabilities for all
// non-zero impulses, in increasing tick order.
func (p *PMF) Impulses() (ticks []int64, probs []float64) {
	for i, v := range p.probs {
		if v == 0 {
			continue
		}
		ticks = append(ticks, p.start+int64(i))
		probs = append(probs, v)
	}
	return ticks, probs
}
