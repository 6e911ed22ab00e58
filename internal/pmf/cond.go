package pmf

// This file holds the arena-allocating forms of the conditioning operations
// the simulator's dequeue/requeue hot loop performs on every mapping event
// for every machine with an executing task. Each replicates the exact
// floating-point accumulation order of the heap-allocating composition it
// replaces (Shift + ConditionAtLeast, or truncating a clone after the
// deadline and adding the cut mass back at it), so switching a call site
// to the arena form never changes simulation results.

// ShiftConditioned returns p.Shift(dt).ConditionAtLeast(t) allocated in the
// arena: the completion-time distribution of a task whose execution profile
// is p, started at dt, given that it has not finished before tick t.
func (a *Arena) ShiftConditioned(p *PMF, dt, t int64) *PMF {
	if p.IsZero() {
		return a.hdr()
	}
	start := p.start + dt
	if t <= start {
		q := a.Clone(p)
		q.start = start
		return q
	}
	if t > start+int64(len(p.probs))-1 {
		return a.Impulse(t)
	}
	cut := t - start
	src := p.probs[cut:]
	buf := a.Floats(len(src))
	copy(buf, src)
	q := a.wrap(t, buf)
	var m float64
	for _, v := range q.probs {
		m += v
	}
	if m == 0 {
		return a.Impulse(t)
	}
	if m != 1 {
		for i := range q.probs {
			q.probs[i] /= m
		}
	}
	return q
}

// EvictTail returns a copy of the free-time distribution p with all mass
// strictly after deadline collapsed onto the deadline tick (scenario C: the
// task is killed at its deadline and the machine freed). p is not modified;
// the result lives in the arena.
func (a *Arena) EvictTail(p *PMF, deadline int64) *PMF {
	if p.IsZero() || deadline >= p.End() {
		return p
	}
	if deadline < p.start {
		// Everything lands late: the whole mass collapses onto the deadline.
		var m float64
		for _, v := range p.probs {
			m += v
		}
		q := a.hdr()
		q.start = deadline
		q.probs = a.Floats(1)
		q.probs[0] = m
		return q
	}
	cut := deadline - p.start + 1
	buf := a.Floats(int(cut))
	copy(buf, p.probs[:cut])
	var late float64
	for _, v := range p.probs[cut:] {
		late += v
	}
	buf[cut-1] += late
	return a.wrap(p.start, buf)
}

// CondMeanShifted returns p.Shift(dt).ConditionAtLeast(t).Mean() without
// materializing either intermediate: the expected completion tick of an
// already-running task. The accumulation replicates ConditionAtLeast
// (renormalize element-wise) followed by Mean (mass recomputed from the
// renormalized values) bit-for-bit. A compacted p is walked through its
// sparse index, so the cost is O(impulses), not O(dense width).
func CondMeanShifted(p *PMF, dt, t int64) float64 {
	if p.IsZero() {
		return 0
	}
	start := p.start + dt
	end := start + int64(len(p.probs)) - 1
	lo := int64(0)
	if t > start {
		if t > end {
			return float64(t) // outran the profile: modeled as finishing now
		}
		lo = t - start
	}
	if p.nz != nil {
		return condMeanSparse(p, start, lo, t)
	}
	var m float64
	for _, v := range p.probs[lo:] {
		m += v
	}
	if m == 0 {
		if t > start {
			return float64(t)
		}
		return 0
	}
	// Mean() divides by the recomputed mass of the (renormalized) values;
	// replicate that by accumulating the renormalized terms themselves.
	// The per-element normalization test is loop-invariant, so each case
	// gets its own branch-free loop with an exact incremental float tick.
	var m2, s float64
	x := float64(start + lo)
	if m != 1 && t > start {
		for _, v := range p.probs[lo:] {
			q := v / m
			m2 += q
			s += q * x
			x++
		}
	} else {
		for _, v := range p.probs[lo:] {
			m2 += v
			s += v * x
			x++
		}
	}
	return s / m2
}

// condMeanSparse is CondMeanShifted over p's sparse index, from dense
// offset lo on, with p's first slot at tick start. The dense loops visit
// the indexed slots in the same order and add only ±0 for every other
// slot, which leaves a non-negative mass, and a sum that starts at +0,
// unchanged: skipping them is bit-identical. Each float tick is converted
// from its integer tick, which equals the dense loop's incremented float
// because ticks stay integral and far below 2^53.
func condMeanSparse(p *PMF, start, lo, t int64) float64 {
	nz := p.nz
	for len(nz) > 0 && int64(nz[0]) < lo {
		nz = nz[1:]
	}
	var m float64
	for _, off := range nz {
		m += p.probs[off]
	}
	if m == 0 {
		if t > start {
			return float64(t)
		}
		return 0
	}
	var m2, s float64
	if m != 1 && t > start {
		for _, off := range nz {
			q := p.probs[off] / m
			m2 += q
			s += q * float64(start+int64(off))
		}
	} else {
		for _, off := range nz {
			v := p.probs[off]
			m2 += v
			s += v * float64(start+int64(off))
		}
	}
	return s / m2
}
