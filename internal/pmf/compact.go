package pmf

// DefaultMaxImpulses bounds PMF support length after compaction. The paper
// notes the convolution overhead "can be mitigated ... by aggregating
// impulses"; 32 impulses keeps chained convolutions cheap while measured
// robustness differences against wider bounds stay within trial noise
// (see the compaction ablation bench).
const DefaultMaxImpulses = 32

// compactStackGroups is the group count served from stack scratch; larger
// bounds (ablation sweeps) fall back to a temporary allocation.
const compactStackGroups = 64

// Compact returns a PMF with at most maxImpulses non-zero impulses,
// aggregating neighboring impulses into the center-of-mass tick of each
// group. Total mass is preserved exactly; the mean moves by less than one
// group width. A PMF already narrow enough is returned as-is (shared, not
// copied — PMFs are treated as immutable once built), so the result's
// lifetime is the shorter of p's and the arena's; a nil arena allocates on
// the heap. Note the dense support may remain wide; what is bounded — and
// what governs convolution cost — is the non-zero impulse count.
func (a *Arena) Compact(p *PMF, maxImpulses int) *PMF {
	if p.IsZero() || maxImpulses <= 0 || len(p.probs) <= maxImpulses {
		return p
	}
	groups := maxImpulses
	n := len(p.probs)

	var tickArr [compactStackGroups]int64
	var massArr [compactStackGroups]float64
	ticks, masses := tickArr[:0], massArr[:0]
	if groups > compactStackGroups {
		ticks = make([]int64, 0, groups)
		masses = make([]float64, 0, groups)
	}
	// Group g spans [g·n/groups, (g+1)·n/groups). The bounds step by the
	// quotient q, plus one whenever the running remainder wraps: the same
	// integers, with no division per group.
	q, r := n/groups, n%groups
	end, rem := 0, 0
	for g := 0; g < groups; g++ {
		lo := end
		end += q
		if rem += r; rem >= groups {
			rem -= groups
			end++
		}
		var mass, center float64
		// The group scan dominates compaction cost: sub-slicing drops the
		// per-element bounds checks, the incremental float tick is exact
		// (ticks stay integral, far below 2^53), and the scan is branch-free —
		// zero slots contribute +0.0 identity terms to non-negative
		// accumulators, so the sums match a zero-skipping scan bit for bit
		// while the loop pipelines without mispredictions.
		x := float64(p.start + int64(lo))
		for _, v := range p.probs[lo:end] {
			mass += v
			center += v * x
			x++
		}
		if mass == 0 {
			continue
		}
		ticks = append(ticks, int64(center/mass+0.5))
		masses = append(masses, mass)
	}
	if len(ticks) == 0 {
		return a.hdr()
	}
	// Group centers of mass are nondecreasing (groups partition increasing
	// index ranges), so the dense output spans [ticks[0], ticks[last]] and
	// coinciding centers accumulate — exactly the sums sequential AddMass
	// calls would produce, without the quadratic regrow-and-copy.
	lo, hi := ticks[0], ticks[len(ticks)-1]
	buf := a.Floats(int(hi - lo + 1))
	nz := a.ints(len(ticks))
	for i, t := range ticks {
		if buf[t-lo] == 0 {
			nz = append(nz, int32(t-lo)) // centers coincide only rarely
		}
		buf[t-lo] += masses[i]
	}
	out := a.hdr()
	out.start = lo
	out.probs = buf
	out.nz = nz
	return out
}
