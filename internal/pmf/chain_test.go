package pmf

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refCompact is Compact as it stood before its group bounds stepped
// division-free: each bound is computed as g·n/groups. It is the oracle
// for the running quotient and remainder.
func refCompact(a *Arena, p *PMF, maxImpulses int) *PMF {
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
	for g := 0; g < groups; g++ {
		lo := g * n / groups
		hi := (g + 1) * n / groups
		var mass, center float64
		x := float64(p.start + int64(lo))
		for _, v := range p.probs[lo:hi] {
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
	lo, hi := ticks[0], ticks[len(ticks)-1]
	buf := a.Floats(int(hi - lo + 1))
	nz := a.ints(len(ticks))
	for i, t := range ticks {
		if buf[t-lo] == 0 {
			nz = append(nz, int32(t-lo))
		}
		buf[t-lo] += masses[i]
	}
	out := a.hdr()
	out.start = lo
	out.probs = buf
	out.nz = nz
	return out
}

// refConvolveDrop is ConvolveDrop's PendingDrop/Evict path written straight
// from Eqs. 3–5: one dense pass over prev with a per-slot deadline test,
// the success sum over the buffer up to the deadline, the Evict collapse
// over the whole rest of the buffer, and a trim of the whole buffer.
func refConvolveDrop(prev, exec *PMF, deadline int64, mode DropMode) Result {
	if prev.IsZero() || exec.IsZero() {
		return Result{Free: &PMF{}}
	}
	outLo, outHi := dropBounds(prev, exec, deadline)
	buf := make([]float64, outHi-outLo+1)
	for i, a := range prev.probs {
		st := prev.start + int64(i)
		if a == 0 || st >= deadline {
			continue
		}
		for j, b := range exec.probs {
			buf[st+exec.start+int64(j)-outLo] += a * b
		}
	}
	dlIdx := deadline - outLo
	var success float64
	for _, v := range buf[:min(dlIdx, int64(len(buf))-1)+1] {
		success += v
	}
	success = min(success, 1)
	if mode == Evict {
		var late float64
		for k := dlIdx + 1; k < int64(len(buf)); k++ {
			late += buf[k]
			buf[k] = 0
		}
		buf[dlIdx] += late
	}
	for i, a := range prev.probs {
		if st := prev.start + int64(i); a != 0 && st >= deadline {
			buf[st-outLo] += a
		}
	}
	return Result{Free: wrap(outLo, buf), Success: success}
}

// sameBits reports why p and q differ — start, width, any mass bit or the
// sparse index — or "" when they are the same PMF bit for bit.
func sameBits(p, q *PMF) string {
	switch {
	case p.start != q.start || len(p.probs) != len(q.probs):
		return fmt.Sprintf("support [%d, +%d) vs [%d, +%d)", p.start, len(p.probs), q.start, len(q.probs))
	case (p.nz == nil) != (q.nz == nil) || !slices.Equal(p.nz, q.nz):
		return fmt.Sprintf("sparse index %v vs %v", p.nz, q.nz)
	}
	for i := range p.probs {
		if math.Float64bits(p.probs[i]) != math.Float64bits(q.probs[i]) {
			return fmt.Sprintf("slot %d: %v vs %v", i, p.probs[i], q.probs[i])
		}
	}
	return ""
}

// chainOperand draws a PMF shaped like one side of a chain step: a dense
// span (a task's execution or a queue tail left uncompacted), the same
// compacted to sparse form, or a single impulse (an empty machine).
func chainOperand(r *rand.Rand, maxLen int, minStart int64) *PMF {
	p := randomPMFFrom(r, maxLen, minStart)
	switch r.Intn(4) {
	case 0:
		return Impulse(p.start)
	case 1:
		// Interior zeros, like a PET entry's histogram gaps.
		for i := 1; i+1 < len(p.probs); i++ {
			if r.Intn(3) == 0 {
				p.probs[i] = 0
			}
		}
		p.Normalize()
		return p
	case 2:
		return heap.Compact(p, 1+r.Intn(12))
	}
	return p
}

// TestPropChainStepBitIdentical: the chain step returns
// Compact(ConvolveDrop(...).Free, k) bit for bit, sparse index included,
// and ConvolveDrop's Free and Success — whose trim starts at the last slot
// that can hold mass — equal a reference that trims the whole buffer.
// Deadlines fall before, inside and past the predecessor's support, in
// every drop mode, at compaction bounds 0 (off), 8, 32 and 128.
func TestPropChainStepBitIdentical(t *testing.T) {
	a := NewArena()
	r := rand.New(rand.NewSource(22))
	var sparse, empty int
	for iter := 0; iter < 3000; iter++ {
		a.Reset()
		prev := chainOperand(r, 300, 0)
		exec := chainOperand(r, 60, 1)
		if prev.nz != nil {
			sparse++
		}
		var deadline int64
		switch r.Intn(3) {
		case 0: // before the support: nothing starts, everything carries
			deadline = prev.Start() - int64(r.Intn(20))
		case 1: // inside it
			deadline = prev.Start() + r.Int63n(int64(prev.Len())+1)
		default: // past it, possibly past every completion too
			deadline = prev.End() + 1 + r.Int63n(exec.End()+20)
		}
		for _, mode := range []DropMode{NoDrop, PendingDrop, Evict} {
			res := a.ConvolveDrop(prev, exec, deadline, mode)
			if mode != NoDrop {
				ref := refConvolveDrop(prev, exec, deadline, mode)
				if diff := sameBits(res.Free, ref.Free); diff != "" {
					t.Fatalf("iter %d %v deadline %d: Free differs from the full-trim reference: %s", iter, mode, deadline, diff)
				}
				if math.Float64bits(res.Success) != math.Float64bits(ref.Success) {
					t.Fatalf("iter %d %v deadline %d: Success %v, reference %v", iter, mode, deadline, res.Success, ref.Success)
				}
			}
			for _, k := range []int{0, 8, 32, 128} {
				want := a.Compact(res.Free, k)
				got := a.ChainStep(prev, exec, deadline, mode, k)
				if diff := sameBits(got, want); diff != "" {
					t.Fatalf("iter %d %v deadline %d k %d: ChainStep differs from Compact(ConvolveDrop): %s", iter, mode, deadline, k, diff)
				}
				if got.IsZero() {
					empty++
				}
			}
		}
	}
	if sparse == 0 || empty != 0 {
		t.Fatalf("premise broken: %d sparse predecessors (want some), %d empty chain steps (want none)", sparse, empty)
	}
	// Empty operands: the same empty PMF from both paths.
	for _, mode := range []DropMode{NoDrop, PendingDrop, Evict} {
		for _, ops := range [][2]*PMF{{&PMF{}, Impulse(3)}, {Impulse(3), &PMF{}}} {
			got := a.ChainStep(ops[0], ops[1], 5, mode, 8)
			want := a.Compact(a.ConvolveDrop(ops[0], ops[1], 5, mode).Free, 8)
			if diff := sameBits(got, want); diff != "" || !got.IsZero() {
				t.Fatalf("%v empty operand: ChainStep %v, want the empty %v (%s)", mode, got, want, diff)
			}
		}
	}
}

// TestWrapToMatchesWrap: trimming from any end at or past a buffer's last
// non-zero slot gives the PMF a trim of the whole buffer gives, an
// all-zero buffer's empty PMF and its start included.
func TestWrapToMatchesWrap(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for iter := 0; iter < 500; iter++ {
		buf := make([]float64, 1+r.Intn(40))
		last := -1 // the last non-zero slot; every fifth buffer stays all zero
		if iter%5 != 0 {
			for i := range buf {
				if r.Intn(3) == 0 {
					buf[i], last = r.Float64(), i
				}
			}
		}
		start := int64(r.Intn(100))
		want := heap.wrap(start, buf)
		for end := last + 1; end <= len(buf); end++ {
			if diff := sameBits(heap.wrapTo(start, buf, end), want); diff != "" {
				t.Fatalf("buffer %v, end %d: %s", buf, end, diff)
			}
		}
	}
}

// TestCompactDivisionFreeBounds: Compact's running quotient and remainder
// yield the same group bounds as g·n/groups for every group count up to
// 128 — above compactStackGroups, where the scratch moves to the heap —
// on dense and sparse spans of every width around the group count.
func TestCompactDivisionFreeBounds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for groups := 1; groups <= 128; groups++ {
		for _, n := range []int{groups + 1, groups + 2, 2*groups - 1, 2 * groups, 3*groups + 1, 7*groups + 5, 300 + r.Intn(700)} {
			probs := make([]float64, n)
			for i := range probs {
				if r.Intn(4) != 0 {
					probs[i] = r.Float64()
				}
			}
			probs[0], probs[n-1] = 0.5, 0.25
			p := New(int64(r.Intn(100)), probs)
			p.Normalize()
			if diff := sameBits(heap.Compact(p, groups), refCompact(nil, p, groups)); diff != "" {
				t.Fatalf("groups %d, width %d: %s", groups, n, diff)
			}
		}
	}
}

// TestSuccessBoundSetDivisionFree: Set's group bounds step like Compact's
// and give the groups g·count/n up to (g+1)·count/n, with each group's
// first tick, mass and rest summed in the same order as a direct split,
// on sparse and dense tails of 1 to 40 impulses.
func TestSuccessBoundSetDivisionFree(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for count := 1; count <= 40; count++ {
		probs := make([]float64, 3*count)
		for _, i := range r.Perm(len(probs))[:count] {
			probs[i] = r.Float64() + 0.01
		}
		dense := New(int64(r.Intn(50)), probs)
		sparse := heap.Clone(dense)
		for i, v := range sparse.probs {
			if v != 0 {
				sparse.nz = append(sparse.nz, int32(i))
			}
		}
		for _, tail := range []*PMF{dense, sparse} {
			var offs []int
			for i, v := range tail.probs {
				if v != 0 {
					offs = append(offs, i)
				}
			}
			var want SuccessBound
			want.n = min(boundGroups, count)
			for g := range want.n {
				lo, hi := g*count/want.n, (g+1)*count/want.n
				want.tick[g] = tail.start + int64(offs[lo])
				for _, off := range offs[lo:hi] {
					want.mass[g] += tail.probs[off]
				}
			}
			var rest float64
			for g := want.n - 1; g >= 0; g-- {
				rest += want.mass[g]
				want.rest[g] = rest
			}
			var got SuccessBound
			got.Set(tail)
			if got != want {
				t.Fatalf("%d impulses, sparse %v: Set gives %+v, want %+v", count, tail.nz != nil, got, want)
			}
		}
	}
}
