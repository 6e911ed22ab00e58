package pmf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"taskprune/internal/stats"
)

// randomPMF builds a normalized PMF with 1..maxLen impulses from quick's
// rand source.
func randomPMF(r *rand.Rand, maxLen int) *PMF {
	return randomPMFFrom(r, maxLen, 0)
}

// randomExecPMF builds a normalized PMF starting at tick >= 1, matching the
// PET invariant that executions take at least one tick (FromHistogram
// clamps). DropSuccess/DropExpectedFree rely on that invariant.
func randomExecPMF(r *rand.Rand, maxLen int) *PMF {
	return randomPMFFrom(r, maxLen, 1)
}

func randomPMFFrom(r *rand.Rand, maxLen int, minStart int64) *PMF {
	n := 1 + r.Intn(maxLen)
	probs := make([]float64, n)
	var total float64
	for i := range probs {
		probs[i] = r.Float64()
		total += probs[i]
	}
	if total == 0 {
		probs[0] = 1
		total = 1
	}
	for i := range probs {
		probs[i] /= total
	}
	return New(minStart+int64(r.Intn(50)), probs)
}

var quickCfg = &quick.Config{MaxCount: 300}

// Property: convolution preserves total mass.
func TestPropConvolveMass(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomPMF(r, 24)
		b := randomPMF(r, 24)
		c := heap.Convolve(a, b)
		return math.Abs(c.Mass()-a.Mass()*b.Mass()) < 1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: convolution adds means (E[X+Y] = E[X] + E[Y]).
func TestPropConvolveMean(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomPMF(r, 24)
		b := randomPMF(r, 24)
		c := heap.Convolve(a, b)
		return math.Abs(c.Mean()-(a.Mean()+b.Mean())) < 1e-6
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: convolution adds variances for independent variables.
func TestPropConvolveVariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomPMF(r, 24)
		b := randomPMF(r, 24)
		c := heap.Convolve(a, b)
		return math.Abs(variance(c)-(variance(a)+variance(b))) < 1e-6
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: convolution is commutative.
func TestPropConvolveCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomPMF(r, 16)
		b := randomPMF(r, 16)
		return ApproxEqual(heap.Convolve(a, b), heap.Convolve(b, a), 1e-9)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: dropping-aware convolution conserves mass in every mode and
// keeps success within [0, CDF-bound].
func TestPropConvolveDropMass(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prev := randomPMF(r, 24)
		exec := randomPMF(r, 16)
		deadline := prev.Start() + int64(r.Intn(40))
		for _, mode := range []DropMode{NoDrop, PendingDrop, Evict} {
			res := heap.ConvolveDrop(prev, exec, deadline, mode)
			if math.Abs(res.Free.Mass()-1) > 1e-9 {
				return false
			}
			if res.Success < -1e-12 || res.Success > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: DropSuccess (the O(|prev|) fast path) agrees exactly with the
// Success field of the full convolution, in every mode.
func TestPropDropSuccessMatchesConvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prev := randomPMF(r, 24)
		exec := randomExecPMF(r, 16)
		prof := NewProfile(exec)
		deadline := prev.Start() + int64(r.Intn(40))
		fast := DropSuccess(prev, prof, deadline)
		for _, mode := range []DropMode{NoDrop, PendingDrop, Evict} {
			res := heap.ConvolveDrop(prev, exec, deadline, mode)
			if math.Abs(res.Success-fast) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: DropExpectedFree agrees with the mean of the fully convolved
// Free PMF in every mode.
func TestPropDropExpectedFreeMatchesConvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prev := randomPMF(r, 24)
		exec := randomExecPMF(r, 16)
		prof := NewProfile(exec)
		deadline := prev.Start() + int64(r.Intn(40))
		for _, mode := range []DropMode{NoDrop, PendingDrop, Evict} {
			res := heap.ConvolveDrop(prev, exec, deadline, mode)
			fast := DropExpectedFree(prev, prof, deadline, mode)
			if math.Abs(res.Free.Mean()-fast) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: success probability is monotone in the deadline.
func TestPropSuccessMonotoneInDeadline(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prev := randomPMF(r, 24)
		exec := randomExecPMF(r, 16)
		prof := NewProfile(exec)
		last := -1.0
		for d := prev.Start() - 2; d < prev.End()+20; d++ {
			s := DropSuccess(prev, prof, d)
			if s < last-1e-12 {
				return false
			}
			last = s
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: Compact preserves mass exactly and never widens support.
func TestPropCompact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPMF(r, 200)
		bound := 1 + r.Intn(64)
		c := heap.Compact(p, bound)
		if c.NumImpulses() > bound {
			return false
		}
		if math.Abs(c.Mass()-p.Mass()) > 1e-9 {
			return false
		}
		return c.Start() >= p.Start() && c.End() <= p.End()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: ConditionAtLeast yields a normalized PMF supported at or after
// the conditioning point, and conditioning at the support start is the
// identity.
func TestPropConditionAtLeast(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPMF(r, 24)
		at := p.Start() + int64(r.Intn(30))
		q := p.ConditionAtLeast(at)
		if math.Abs(q.Mass()-1) > 1e-9 {
			return false
		}
		return q.Start() >= at
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: CDF is monotone non-decreasing and reaches total mass.
func TestPropCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPMF(r, 32)
		prev := 0.0
		for tk := p.Start() - 1; tk <= p.End()+1; tk++ {
			c := p.CDF(tk)
			if c < prev-1e-12 {
				return false
			}
			prev = c
		}
		return math.Abs(prev-p.Mass()) < 1e-9
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: Profile prefix sums match direct computation.
func TestPropProfileConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPMF(r, 32)
		prof := NewProfile(p)
		for tk := p.Start() - 1; tk <= p.End()+2; tk++ {
			if math.Abs(prof.CDF(tk)-p.CDF(tk)) > 1e-9 {
				return false
			}
			var pm float64
			for u := p.Start(); u <= tk && u <= p.End(); u++ {
				pm += p.At(u) * float64(u)
			}
			if math.Abs(prof.PartialMean(tk)-pm) > 1e-6 {
				return false
			}
		}
		return math.Abs(prof.Mean()-p.Mean()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// groupBound is the tightest of SuccessBound.Below's partial bounds,
// Σ_g mass_g·CDF_exec(δ − tick_g), summed in Below's order.
func groupBound(b *SuccessBound, exec *Profile, deadline int64) float64 {
	var s float64
	for g := range b.n {
		s += b.mass[g] * exec.CDF(deadline-b.tick[g])
	}
	return s
}

// Property: DropEval's success never exceeds CDF_exec(δ − prev.Start()),
// the first-tick bound — every start lies at or after prev.Start() and the
// CDF is monotone — nor the four-group bound SuccessBound summarises, so
// Below never skips a machine whose success reaches the floor. The
// four-group bound is never looser than the first-tick one, and at PAM's
// defer threshold and MOC's culling threshold it skips pairs the first-tick
// bound keeps. Tails are queue chains like a machine's, left dense or
// compacted to sparse form, or an empty machine's single impulse; profiles
// are fresh or conditioned on banked progress like a restored task's.
func TestPropDropEvalSuccessBound(t *testing.T) {
	sparse, tighter := 0, 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dense := Impulse(int64(r.Intn(50)))
		for k := 2 + r.Intn(4); k > 0; k-- {
			dense = heap.ConvolveDrop(dense, randomExecPMF(r, 24), dense.Start()+int64(r.Intn(150)), PendingDrop).Free
		}
		compacted := heap.Compact(dense, 1+r.Intn(8))
		if compacted.nz != nil {
			sparse++
		}
		single := Impulse(int64(r.Intn(200)))
		exec := randomExecPMF(r, 24)
		consumed := 1 + r.Int63n(exec.End())
		for _, prev := range []*PMF{dense, compacted, single} {
			var sb SuccessBound
			sb.Set(prev)
			for _, prof := range []*Profile{NewProfile(exec), NewProfile(exec.RemainingAfter(consumed))} {
				for d := prev.Start() - 2; d <= prev.End()+prof.PMF().End()+2; d++ {
					first := prof.CDF(d - prev.Start())
					four := groupBound(&sb, prof, d)
					if four > first+1e-12 {
						t.Logf("seed %d deadline %d: four-group bound %v above first-tick bound %v", seed, d, four, first)
						return false
					}
					for _, mode := range []DropMode{NoDrop, PendingDrop, Evict} {
						s, _ := DropEval(prev, prof, d, mode)
						if s > first+1e-12 || s > four+1e-12 {
							t.Logf("seed %d deadline %d %v: success %v above a bound (first-tick %v, four-group %v)", seed, d, mode, s, first, four)
							return false
						}
						if s > 1e-12 && sb.Below(prof, d, s-1e-12) {
							t.Logf("seed %d deadline %d %v: Below skips success %v", seed, d, mode, s)
							return false
						}
					}
					for _, floor := range []float64{0.3, 0.9} {
						if first >= floor && sb.Below(prof, d, floor) {
							tighter++
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if sparse == 0 {
		t.Error("no compacted tail took the sparse path")
	}
	if tighter == 0 {
		t.Error("Below never skipped a pair the first-tick bound keeps")
	}
	t.Logf("%d (tail, profile, deadline, floor) cases skipped that the first-tick bound keeps", tighter)
}

// TestSuccessBoundBelow: a tail with 0.05 at tick 0 and 0.95 at tick 100,
// dense and sparse, and a task certain to finish within 10 ticks of
// starting, due at tick 20. The first-tick bound is 1, but success is 0.05,
// and the group that starts at tick 100 shows it: Below skips at floor 0.9
// and keeps at floor 0.05. An empty tail reads success 0.
func TestSuccessBoundBelow(t *testing.T) {
	probs := make([]float64, 101)
	probs[0], probs[100] = 0.05, 0.95
	dense := New(0, probs)
	sparse := heap.Compact(dense, 2)
	if dense.nz != nil || sparse.nz == nil || sparse.NumImpulses() != 2 {
		t.Fatal("premise broken: want one dense and one sparse two-impulse tail")
	}
	exec := NewProfile(New(5, []float64{0.5, 0, 0, 0, 0, 0.5}))
	if exec.CDF(10) != 1 {
		t.Fatal("premise broken: exec should be certain by tick 10")
	}
	for _, tail := range []*PMF{dense, sparse} {
		var sb SuccessBound
		sb.Set(tail)
		if first := exec.CDF(20 - tail.Start()); first != 1 {
			t.Fatalf("first-tick bound = %v, want 1", first)
		}
		if s, _ := DropEval(tail, exec, 20, Evict); math.Abs(s-0.05) > 1e-15 {
			t.Fatalf("success = %v, want 0.05", s)
		}
		if !sb.Below(exec, 20, 0.9) {
			t.Errorf("nz=%v: Below(floor 0.9) = false, want true", tail.nz != nil)
		}
		if sb.Below(exec, 20, 0.05) {
			t.Errorf("nz=%v: Below(floor 0.05) = true on success 0.05", tail.nz != nil)
		}
	}
	var empty SuccessBound
	empty.Set(dense) // Set must clear what a previous tail left
	empty.Set(&PMF{})
	for _, floor := range []float64{-1, 0, 1e-300, 0.9} {
		if got := empty.Below(exec, 20, floor); got != (0 < floor) {
			t.Errorf("empty tail: Below(floor %v) = %v, want %v", floor, got, 0 < floor)
		}
	}
}

// Property: CondMeanShifted over a compacted PMF's sparse index is
// bit-identical to the dense scan of the same mass without an index, and
// both match the materialized Shift → ConditionAtLeast → Mean. PMFs are
// PET-shaped (a 32-bin histogram of gamma samples, compacted as pet.Build
// does, sometimes harder); shifts cover a fresh start, a late start, and a
// restored task whose banked progress puts its origin before tick 0. The
// clock sweeps every tick from below the shifted start to past its end.
func TestPropCondMeanShiftedSparse(t *testing.T) {
	points := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rng := stats.NewRNG(seed)
		samples := rng.GammaSamples(500, 20+800*r.Float64(), 1+19*r.Float64())
		sparse := heap.Compact(FromSamples(samples, 32), 1+r.Intn(DefaultMaxImpulses))
		if sparse.nz == nil {
			return true // already narrow: nothing to compare
		}
		dense := New(sparse.Start(), append([]float64(nil), sparse.probs...))
		if dense.nz != nil || dense.Start() != sparse.Start() || dense.Len() != sparse.Len() {
			return false
		}
		for _, dt := range []int64{0, r.Int63n(5000), -sparse.Start() - r.Int63n(sparse.End())} {
			lo, hi := sparse.Start()+dt, sparse.End()+dt
			for clk := lo - 3; clk <= hi+3; clk++ {
				got, want := CondMeanShifted(sparse, dt, clk), CondMeanShifted(dense, dt, clk)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Logf("seed %d dt %d clock %d: sparse %v, dense %v", seed, dt, clk, got, want)
					return false
				}
				points++
				if clk < lo || clk > hi || dense.At(clk-dt) != 0 {
					oracle := dense.Shift(dt).ConditionAtLeast(clk).Mean()
					if math.Float64bits(got) != math.Float64bits(oracle) {
						t.Logf("seed %d dt %d clock %d: CondMeanShifted %v, materialized %v", seed, dt, clk, got, oracle)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if points == 0 {
		t.Error("no compacted PMF took the sparse path")
	}
}
