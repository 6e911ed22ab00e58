package pmf

// Profile augments an execution-time PMF with precomputed prefix sums so
// that the two quantities mapping heuristics evaluate millions of times —
// a task's success probability and its expected machine-free time against
// a candidate queue tail — cost O(|tail|) instead of a full O(|tail|·|exec|)
// convolution. Full convolutions are then only needed when an assignment is
// actually committed (to update the tail) or when a queue chain is walked.
type Profile struct {
	p    *PMF
	cdf  []float64 // cdf[i]  = P(X <= start+i)
	ccdf []float64 // ccdf[i] = 1 − cdf[i]: suffix (deadline-miss) mass
	pex  []float64 // pex[i]  = E[X · 1(X <= start+i)]
	mean float64
}

// NewProfile precomputes prefix statistics for p. The PMF is retained by
// reference and must not be mutated afterwards.
func NewProfile(p *PMF) *Profile {
	pr := &Profile{p: p}
	pr.cdf = make([]float64, len(p.probs))
	pr.ccdf = make([]float64, len(p.probs))
	pr.pex = make([]float64, len(p.probs))
	var c, e float64
	for i, v := range p.probs {
		x := float64(p.start + int64(i))
		c += v
		e += v * x
		pr.cdf[i] = c
		pr.ccdf[i] = 1 - c
		pr.pex[i] = e
	}
	pr.mean = p.Mean()
	return pr
}

// PMF returns the underlying distribution.
func (pr *Profile) PMF() *PMF { return pr.p }

// Mean returns E[X].
func (pr *Profile) Mean() float64 { return pr.mean }

// CDF returns P(X <= t).
func (pr *Profile) CDF(t int64) float64 {
	if len(pr.cdf) == 0 || t < pr.p.start {
		return 0
	}
	i := t - pr.p.start
	if i >= int64(len(pr.cdf)) {
		i = int64(len(pr.cdf)) - 1
	}
	return pr.cdf[i]
}

// PartialMean returns E[X · 1(X <= t)].
func (pr *Profile) PartialMean(t int64) float64 {
	if len(pr.pex) == 0 || t < pr.p.start {
		return 0
	}
	i := t - pr.p.start
	if i >= int64(len(pr.pex)) {
		i = int64(len(pr.pex)) - 1
	}
	return pr.pex[i]
}

// CCDF returns the suffix mass P(X > t) = 1 − CDF(t) — the probability a
// task whose execution profile is pr misses a deadline t ticks away — as
// a precomputed O(1) lookup. For a normalized profile the table stores the
// expression 1 − CDF(t) exactly; below (or without) support the result
// saturates at 1, matching 1 − CDF(t) there too.
func (pr *Profile) CCDF(t int64) float64 {
	if len(pr.ccdf) == 0 || t < pr.p.start {
		return 1
	}
	i := t - pr.p.start
	if i >= int64(len(pr.ccdf)) {
		i = int64(len(pr.ccdf)) - 1
	}
	return pr.ccdf[i]
}

// MeanCappedAt returns E[min(X, d)] = E[X·1(X<=d)] + d·P(X>d).
func (pr *Profile) MeanCappedAt(d int64) float64 {
	return pr.PartialMean(d) + float64(d)*pr.CCDF(d)
}

// DropSuccess computes the success probability of a task with the given
// deadline whose execution profile is exec and whose start time is
// distributed as prev — without materializing the convolution:
//
//	P(success) = Σ_{s < δ} prev(s) · P(exec <= δ − s)
//
// The formula is identical under all three dropping scenarios: starts at or
// after the deadline contribute nothing either way (under NoDrop their
// completion necessarily lands after δ because executions take at least one
// tick — a precondition PET profiles guarantee; under PendingDrop/Evict the
// task is dropped before starting). It matches ConvolveDrop's Success field
// exactly, which the property tests assert.
func DropSuccess(prev *PMF, exec *Profile, deadline int64) float64 {
	if prev.IsZero() {
		return 0
	}
	var s float64
	// Only slots strictly before the deadline contribute; prev's support is
	// ascending, so the prefix below the boundary index is exactly the set
	// the per-element break used to visit, in the same order.
	cut := startsBefore(prev, deadline)
	if nz := prev.nz; nz != nil {
		for _, off := range nz {
			if int64(off) >= cut {
				break
			}
			s += prev.probs[off] * exec.CDF(deadline-prev.start-int64(off))
		}
	} else {
		for i, a := range prev.probs[:cut] {
			if a == 0 {
				continue
			}
			s += a * exec.CDF(deadline-prev.start-int64(i))
		}
	}
	if s > 1 {
		s = 1 // floating-point accumulation guard
	}
	return s
}

// startsBefore returns the count of prev's dense slots whose tick lies
// strictly before the deadline, clamped into [0, len].
func startsBefore(prev *PMF, deadline int64) int64 {
	cut := deadline - prev.start
	if cut < 0 {
		return 0
	}
	if cut > int64(len(prev.probs)) {
		return int64(len(prev.probs))
	}
	return cut
}

// DropExpectedFree computes the mean of ConvolveDrop(prev, exec, δ, mode)'s
// Free PMF in O(|prev|):
//
//	PendingDrop: Σ_{s<δ} prev(s)·(s + E[exec])        + Σ_{s>=δ} prev(s)·s
//	Evict:       Σ_{s<δ} prev(s)·(s + E[min(exec,δ−s)]) + Σ_{s>=δ} prev(s)·s
//	NoDrop:      E[prev] + E[exec]
func DropExpectedFree(prev *PMF, exec *Profile, deadline int64, mode DropMode) float64 {
	if prev.IsZero() {
		return 0
	}
	if mode == NoDrop {
		return prev.Mean() + exec.Mean()
	}
	var e, mass float64
	for i, a := range prev.probs {
		if a == 0 {
			continue
		}
		st := prev.start + int64(i)
		mass += a
		switch {
		case st >= deadline:
			e += a * float64(st)
		case mode == Evict:
			e += a * (float64(st) + exec.MeanCappedAt(deadline-st))
		default: // PendingDrop
			e += a * (float64(st) + exec.Mean())
		}
	}
	if mass == 0 {
		return 0
	}
	return e / mass
}

// DropEval computes DropSuccess and DropExpectedFree in one scan of prev —
// the two scalars phase-one mapping evaluates for every (task, machine)
// pair. The accumulation order of each result replicates its standalone
// function exactly, so DropEval is a bit-identical drop-in for the pair of
// calls at half the tail-scanning cost.
func DropEval(prev *PMF, exec *Profile, deadline int64, mode DropMode) (success, expFree float64) {
	if prev.IsZero() {
		return 0, 0
	}
	if mode == NoDrop {
		return DropSuccess(prev, exec, deadline), prev.Mean() + exec.Mean()
	}
	// One boundary split replaces the per-element deadline test, and the
	// loop-invariant mode test is hoisted into dedicated loops: ascending
	// support means every slot before the boundary takes the mode branch
	// and every slot after it takes the carried branch, so the split loops
	// visit the same elements in the same order as the single switch-laden
	// scan they replace — bit-identical sums at a fraction of the branches.
	cut := startsBefore(prev, deadline)
	var s, e, mass float64
	if nz := prev.nz; nz != nil {
		// Sparse fast path: a compacted tail stores few impulses over a
		// wide dense support; walking the non-zero index skips only exact
		// zeros, so the sums are bit-identical to the dense scan below.
		nzCut := 0
		for nzCut < len(nz) && int64(nz[nzCut]) < cut {
			nzCut++
		}
		probs := prev.probs
		if mode == Evict {
			for _, off := range nz[:nzCut] {
				a := probs[off]
				st := prev.start + int64(off)
				mass += a
				s += a * exec.CDF(deadline-st)
				e += a * (float64(st) + exec.MeanCappedAt(deadline-st))
			}
		} else {
			em := exec.Mean()
			for _, off := range nz[:nzCut] {
				a := probs[off]
				st := prev.start + int64(off)
				mass += a
				s += a * exec.CDF(deadline-st)
				e += a * (float64(st) + em)
			}
		}
		for _, off := range nz[nzCut:] {
			a := probs[off]
			mass += a
			e += a * float64(prev.start+int64(off))
		}
	} else {
		if mode == Evict {
			for i, a := range prev.probs[:cut] {
				if a == 0 {
					continue
				}
				st := prev.start + int64(i)
				mass += a
				s += a * exec.CDF(deadline-st)
				e += a * (float64(st) + exec.MeanCappedAt(deadline-st))
			}
		} else {
			em := exec.Mean()
			for i, a := range prev.probs[:cut] {
				if a == 0 {
					continue
				}
				st := prev.start + int64(i)
				mass += a
				s += a * exec.CDF(deadline-st)
				e += a * (float64(st) + em)
			}
		}
		base := prev.start + cut
		for i, a := range prev.probs[cut:] {
			if a == 0 {
				continue
			}
			mass += a
			e += a * float64(base+int64(i))
		}
	}
	if s > 1 {
		s = 1 // floating-point accumulation guard
	}
	if mass == 0 {
		return s, 0
	}
	return s, e / mass
}

// boundGroups is the number of tail groups a SuccessBound keeps. On ten
// 800-task PAM trials at the 34k level, phase one made 435,470, 80,288,
// 26,900, 13,642 and 9,037 DropEval calls with 1, 2, 4, 8 and 16 groups;
// eight groups did not run faster end to end than four.
const boundGroups = 4

// SuccessBound is a fixed-size summary of a queue tail from which Below
// bounds DropEval's success from above without scanning the tail. The
// tail's non-zero impulses, in tick order, are split into up to four
// groups of equal count (within one); each keeps its first tick, its mass,
// and the mass from it to the end of the tail. The zero value summarises
// an empty tail. Set and Below allocate nothing.
type SuccessBound struct {
	n    int                  // groups in use: min(boundGroups, impulses)
	tick [boundGroups]int64   // first tick of each group
	mass [boundGroups]float64 // mass of each group
	rest [boundGroups]float64 // mass of this group and every later one
}

// Set makes b summarise tail. It walks the sparse index when the tail has
// one; a dense tail is counted first and then split, so any width works.
func (b *SuccessBound) Set(tail *PMF) {
	*b = SuccessBound{}
	if tail.IsZero() {
		return
	}
	// Group g holds impulses g·count/n up to (g+1)·count/n. As in Compact,
	// the bounds step by the quotient and a running remainder instead of
	// dividing per group.
	if nz := tail.nz; nz != nil {
		b.n = min(boundGroups, len(nz))
		q, r := len(nz)/b.n, len(nz)%b.n
		end, rem := 0, 0
		for g := range b.n {
			lo := end
			end += q
			if rem += r; rem >= b.n {
				rem -= b.n
				end++
			}
			b.tick[g] = tail.start + int64(nz[lo])
			var m float64
			for _, off := range nz[lo:end] {
				m += tail.probs[off]
			}
			b.mass[g] = m
		}
	} else {
		count := tail.NumImpulses()
		b.n = min(boundGroups, count)
		q, r := count/b.n, count%b.n
		// next is the index of the impulse that opens the next group.
		g, k, next, rem := -1, 0, 0, 0
		for i, v := range tail.probs {
			if v == 0 {
				continue
			}
			if k == next {
				g++
				next += q
				if rem += r; rem >= b.n {
					rem -= b.n
					next++
				}
				b.tick[g] = tail.start + int64(i)
			}
			b.mass[g] += v
			k++
		}
	}
	var rest float64
	for g := b.n - 1; g >= 0; g-- {
		rest += b.mass[g]
		b.rest[g] = rest
	}
}

// Below reports whether a task with execution profile exec and the given
// deadline, queued behind the summarised tail, is certain to have a
// DropEval success below floor, up to float rounding. Success is
// Σ_s tail(s)·CDF_exec(δ−s), and the CDF is monotone, so for every j
//
//	B_j = Σ_{g<j} mass_g·CDF_exec(δ − tick_g) + rest_j·CDF_exec(δ − tick_j)
//
// bounds it from above: each start s in group g lies at or after tick_g.
// B_0 is the tail's mass times CDF_exec(δ − first tick), and each B_{j+1}
// is at most B_j. Below tests them in turn, one profile lookup each, and
// stops at the first that falls below floor. An empty tail has success 0.
func (b *SuccessBound) Below(exec *Profile, deadline int64, floor float64) bool {
	if b.n == 0 {
		return 0 < floor
	}
	var acc float64
	for g := range b.n {
		c := exec.CDF(deadline - b.tick[g])
		if acc+b.rest[g]*c < floor {
			return true
		}
		acc += b.mass[g] * c
	}
	return false
}
