package pmf

import "fmt"

// DropMode selects which of the paper's three completion-time scenarios
// governs a convolution (Section IV):
//
//	NoDrop      (A) every mapped task runs to completion (Eq. 2).
//	PendingDrop (B) a pending task is dropped if its predecessor finishes
//	            at or after the task's deadline (Eqs. 3–4).
//	Evict       (C) additionally, an executing task is killed the moment
//	            its deadline passes (Eq. 5).
type DropMode int

const (
	NoDrop DropMode = iota
	PendingDrop
	Evict
)

// String implements fmt.Stringer.
func (m DropMode) String() string {
	switch m {
	case NoDrop:
		return "nodrop"
	case PendingDrop:
		return "pending"
	case Evict:
		return "evict"
	default:
		return fmt.Sprintf("DropMode(%d)", int(m))
	}
}

// convolveCore accumulates the plain convolution of prev and exec into out,
// which must be zeroed and have length >= prev.Len()+exec.Len()-1. Impulse
// operands take a copy/scale fast path; the generic path skips zero mass.
func convolveCore(out []float64, prev, exec *PMF) {
	if len(prev.probs) == 1 {
		a := prev.probs[0]
		if a == 1 {
			copy(out, exec.probs)
			return
		}
		for j, b := range exec.probs {
			out[j] = a * b
		}
		return
	}
	if len(exec.probs) == 1 {
		b := exec.probs[0]
		if b == 1 {
			copy(out, prev.probs)
			return
		}
		for i, a := range prev.probs {
			out[i] = a * b
		}
		return
	}
	if prev.nz != nil {
		for _, off := range prev.nz {
			accumRow(out[off:int(off)+len(exec.probs)], prev.probs[off], exec)
		}
		return
	}
	for i, a := range prev.probs {
		if a == 0 {
			continue
		}
		accumRow(out[i:i+len(exec.probs)], a, exec)
	}
}

// accumRow adds a·exec into row, walking only exec's non-zero impulses
// when the sparse index is available. Skipping exact zeros (and scaling by
// a) is bit-identical to the dense accumulation it replaces. This is the
// innermost convolution kernel, so both paths are shaped for the compiler:
// the row is re-sliced to exec's width up front (one bounds check instead
// of one per element) and the sparse walk is unrolled four wide — each
// row slot is its own accumulator, so the unroll reorders nothing.
func accumRow(row []float64, a float64, exec *PMF) {
	probs := exec.probs
	row = row[:len(probs)]
	if nz := exec.nz; nz != nil {
		i := 0
		for ; i+4 <= len(nz); i += 4 {
			j0, j1, j2, j3 := nz[i], nz[i+1], nz[i+2], nz[i+3]
			row[j0] += a * probs[j0]
			row[j1] += a * probs[j1]
			row[j2] += a * probs[j2]
			row[j3] += a * probs[j3]
		}
		for _, j := range nz[i:] {
			row[j] += a * probs[j]
		}
		return
	}
	// Dense: branch-free. Adding a·0 = +0.0 is the bitwise identity on the
	// non-negative masses a row can hold (they start at +0.0 and only ever
	// gain non-negative products), so dropping the zero test changes no
	// result while letting the loop pipeline without mispredictions.
	for j, b := range probs {
		row[j] += a * b
	}
}

// Convolve returns the plain convolution of two PMFs (Eq. 2): the
// distribution of the sum of the two independent random variables. This is
// the completion time of a task whose execution time is exec and whose
// start time is distributed as prev, when no dropping can occur. The result
// is valid until the arena's next Reset; a nil arena allocates it on the
// heap.
func (a *Arena) Convolve(prev, exec *PMF) *PMF {
	if prev.IsZero() || exec.IsZero() {
		return a.hdr()
	}
	out := a.Floats(len(prev.probs) + len(exec.probs) - 1)
	convolveCore(out, prev, exec)
	return a.wrap(prev.start+exec.start, out)
}

// Result carries the outcome of a dropping-aware convolution. Free is the
// distribution of the time at which the machine becomes free of the task
// (by completion, by eviction at the deadline, or — when the task never
// starts — the predecessor's completion carried through). Success is the
// probability that the task itself completes at or before its deadline
// (Eq. 1 applied to execution mass only): under PendingDrop/Evict the Free
// PMF mixes carried and evicted mass with true completions, so the success
// probability cannot be recovered from Free alone and is computed during
// the convolution.
type Result struct {
	Free    *PMF
	Success float64
}

// dropBounds computes the dense output support of a dropping-aware
// convolution. The support spans execution completions (start+exec for
// starts strictly before the deadline) plus carried predecessor mass (prev
// ticks at or after the deadline); one dense buffer covers both.
func dropBounds(prev, exec *PMF, deadline int64) (outLo, outHi int64) {
	outLo = prev.start + exec.start
	outHi = prev.End() + exec.End()
	if prev.End() > outHi {
		outHi = prev.End()
	}
	if deadline > outHi {
		outHi = deadline
	}
	if prev.start < outLo {
		outLo = prev.start
	}
	if deadline < outLo {
		// A deadline before any possible completion: no execution mass can
		// land on time, but Evict still needs the deadline slot to exist.
		outLo = deadline
	}
	return outLo, outHi
}

// convolveDropCore runs the PendingDrop/Evict convolution into buf (zeroed,
// spanning [outLo, outHi] per dropBounds). It returns the success
// probability when withSuccess is set (0 otherwise), and end: every slot
// after buf[end] is zero, so trimming may start there. It is the core of
// Arena.ConvolveDrop and Arena.ChainStep.
func convolveDropCore(buf []float64, outLo int64, prev, exec *PMF, deadline int64, mode DropMode, withSuccess bool) (success float64, end int64) {
	// Predecessor slots split at the deadline: indices below cut start the
	// task (they convolve with exec), indices at or above carry through
	// untouched. prev's support — and its nz index — is ascending, so one
	// boundary split replaces the per-element deadline branch of both loops
	// below while visiting the exact same elements in the exact same order.
	cut := deadline - prev.start
	if cut < 0 {
		cut = 0
	}
	if cut > int64(len(prev.probs)) {
		cut = int64(len(prev.probs))
	}
	nz := prev.nz
	nzCut := 0
	for nzCut < len(nz) && int64(nz[nzCut]) < cut {
		nzCut++
	}

	// Execution part (Eq. 3's helper f): convolve only predecessor
	// completions strictly before the deadline. execEnd is the last slot a
	// row reaches (−1 without rows): the buffer is zero after it.
	ew := int64(len(exec.probs))
	execEnd := int64(-1)
	if nz != nil {
		for _, off := range nz[:nzCut] {
			base := prev.start + int64(off) + exec.start - outLo
			accumRow(buf[base:base+ew], prev.probs[off], exec)
		}
		if nzCut > 0 {
			execEnd = prev.start + int64(nz[nzCut-1]) + exec.start - outLo + ew - 1
		}
	} else {
		for i, a := range prev.probs[:cut] {
			if a == 0 {
				continue
			}
			base := prev.start + int64(i) + exec.start - outLo
			accumRow(buf[base:base+ew], a, exec)
		}
		if cut > 0 {
			execEnd = prev.start + cut - 1 + exec.start - outLo + ew - 1
		}
	}

	// Success (Eq. 1): execution mass landing at or before the deadline.
	dlIdx := deadline - outLo
	if withSuccess {
		limit := dlIdx
		if limit >= int64(len(buf)) {
			limit = int64(len(buf)) - 1
		}
		for _, v := range buf[:limit+1] {
			success += v
		}
		if success > 1 {
			success = 1 // floating-point accumulation guard
		}
	}

	end = execEnd
	if mode == Evict {
		// Eq. 5: execution mass strictly after the deadline collapses onto
		// an impulse at the deadline — the task is killed at δi and the
		// machine freed. Slots past execEnd hold no mass yet, so the late
		// sum stops there (adding their +0.0 would change no bit).
		if execEnd > dlIdx {
			var late float64
			tail := buf[dlIdx+1 : execEnd+1]
			for _, v := range tail {
				late += v
			}
			clear(tail)
			buf[dlIdx] += late
			end = dlIdx
		}
	} else if mode != PendingDrop {
		panic(fmt.Sprintf("pmf: unknown drop mode %v", mode))
	}

	// Carried predecessor mass (Eq. 4's c_pend(i-1)(t) term): the task
	// never starts; the machine frees up when the predecessor finishes.
	if nz != nil {
		for _, off := range nz[nzCut:] {
			buf[prev.start+int64(off)-outLo] += prev.probs[off]
		}
	} else {
		base := prev.start + cut - outLo
		for i, a := range prev.probs[cut:] {
			if a == 0 {
				continue
			}
			buf[base+int64(i)] += a
		}
	}
	if cut < int64(len(prev.probs)) {
		end = max(end, prev.End()-outLo)
	}
	return success, end
}

// ConvolveDrop convolves the predecessor's machine-free-time PMF (prev)
// with a task's execution-time PMF (exec) under the given dropping mode and
// the task's deadline.
//
// Semantics per mode:
//
//   - NoDrop: Free = prev * exec; Success = CDF(Free, deadline).
//
//   - PendingDrop (Eqs. 3–4): execution only begins for the part of prev
//     strictly before the deadline ("helper" Eq. 3 discards impulses of
//     PCT(i-1) at or after δi). Mass of prev at t >= deadline is carried
//     into Free unchanged — the task is dropped before starting and the
//     machine frees up when the predecessor finishes.
//
//   - Evict (Eq. 5): as PendingDrop, but execution mass that would land
//     strictly after the deadline collapses onto an impulse at the deadline:
//     the task is killed at δi and the machine is free at δi. Completion
//     exactly at the deadline still counts as success (Eq. 1 uses t <= δi).
//
// The Result's Free PMF is valid until the arena's next Reset; a nil arena
// allocates it on the heap.
func (a *Arena) ConvolveDrop(prev, exec *PMF, deadline int64, mode DropMode) Result {
	if mode == NoDrop {
		free := a.Convolve(prev, exec)
		return Result{Free: free, Success: free.SuccessProb(deadline)}
	}
	if prev.IsZero() || exec.IsZero() {
		return Result{Free: a.hdr()}
	}
	outLo, outHi := dropBounds(prev, exec, deadline)
	buf := a.Floats(int(outHi - outLo + 1))
	success, end := convolveDropCore(buf, outLo, prev, exec, deadline, mode, true)
	return Result{Free: a.wrapTo(outLo, buf, int(end)+1), Success: success}
}

// ChainStep is one link of a queue's completion chain:
// Compact(ConvolveDrop(prev, exec, deadline, mode).Free, maxImpulses), bit
// for bit, without the success sum. Tail rebuilds, commits and MOC's
// permutation search read only the chained PMF; the pruner's walk, which
// also reads the task's success, calls ConvolveDrop. The result is valid
// until the arena's next Reset; a nil arena allocates it on the heap.
func (a *Arena) ChainStep(prev, exec *PMF, deadline int64, mode DropMode, maxImpulses int) *PMF {
	if mode == NoDrop {
		return a.Compact(a.Convolve(prev, exec), maxImpulses)
	}
	if prev.IsZero() || exec.IsZero() {
		return a.hdr()
	}
	outLo, outHi := dropBounds(prev, exec, deadline)
	buf := a.Floats(int(outHi - outLo + 1))
	_, end := convolveDropCore(buf, outLo, prev, exec, deadline, mode, false)
	return a.Compact(a.wrapTo(outLo, buf, int(end)+1), maxImpulses)
}
