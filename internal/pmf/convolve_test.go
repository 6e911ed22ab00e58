package pmf

import (
	"math"
	"testing"
)

// execPMF is the execution-time PMF the paper uses in its worked examples
// (Figures 2 and 3): impulses {1: .25, 2: .50, 3: .25}.
func execPMF() *PMF { return New(1, []float64{0.25, 0.50, 0.25}) }

// TestPaperFigure2 reproduces the paper's Figure 2 exactly: the PET of an
// arriving task i (deadline 7) is convolved with the PCT of the last task
// on machine j, {3: .50, 4: .25, 5: .25}, producing
// {4: .125, 5: .3125, 6: .3125, 7: .1875, 8: .0625}.
func TestPaperFigure2(t *testing.T) {
	prev := New(3, []float64{0.50, 0.25, 0.25})
	got := heap.Convolve(prev, execPMF())
	want := New(4, []float64{0.125, 0.3125, 0.3125, 0.1875, 0.0625})
	if !ApproxEqual(got, want, tol) {
		t.Fatalf("Figure 2 convolution = %v, want %v", got, want)
	}
	// Robustness with deadline 7 (Eq. 1): all mass except the impulse at 8.
	if rob := got.SuccessProb(7); !almostEqual(rob, 0.9375, tol) {
		t.Errorf("robustness = %v, want 0.9375", rob)
	}
}

// TestPaperFigure3a reproduces Figure 3(a): a no-skew predecessor PCT
// {2: .25, 3: .50, 4: .25} (robustness .75 at δi = 3) yields successor
// completion {3: .0625, 4: .25, 5: .375, 6: .25, 7: .0625} and robustness
// .6875 at δ = 5.
func TestPaperFigure3a(t *testing.T) {
	mid := New(2, []float64{0.25, 0.50, 0.25})
	if rob := mid.SuccessProb(3); !almostEqual(rob, 0.75, tol) {
		t.Fatalf("predecessor robustness = %v, want 0.75", rob)
	}
	if s := mid.Skewness(); !almostEqual(s, 0, tol) {
		t.Fatalf("predecessor skewness = %v, want 0", s)
	}
	got := heap.Convolve(mid, execPMF())
	want := New(3, []float64{0.0625, 0.25, 0.375, 0.25, 0.0625})
	if !ApproxEqual(got, want, tol) {
		t.Fatalf("Figure 3a convolution = %v, want %v", got, want)
	}
	if rob := got.SuccessProb(5); !almostEqual(rob, 0.6875, tol) {
		t.Errorf("successor robustness = %v, want 0.6875", rob)
	}
}

// TestPaperFigure3b reproduces Figure 3(b): a left-skewed predecessor
// {2: .15, 3: .60, 4: .25} (same .75 robustness) drags the successor down
// to robustness .6625.
func TestPaperFigure3b(t *testing.T) {
	mid := New(2, []float64{0.15, 0.60, 0.25})
	if rob := mid.SuccessProb(3); !almostEqual(rob, 0.75, tol) {
		t.Fatalf("predecessor robustness = %v, want 0.75", rob)
	}
	if s := mid.Skewness(); s >= 0 {
		t.Fatalf("predecessor skewness = %v, want negative (left skew)", s)
	}
	got := heap.Convolve(mid, execPMF())
	want := New(3, []float64{0.0375, 0.225, 0.400, 0.275, 0.0625})
	if !ApproxEqual(got, want, tol) {
		t.Fatalf("Figure 3b convolution = %v, want %v", got, want)
	}
	if rob := got.SuccessProb(5); !almostEqual(rob, 0.6625, tol) {
		t.Errorf("successor robustness = %v, want 0.6625", rob)
	}
}

// TestPaperFigure3c reproduces Figure 3(c): a right-skewed predecessor
// {2: .50, 3: .25, 4: .25} lifts the successor to robustness .75.
func TestPaperFigure3c(t *testing.T) {
	mid := New(2, []float64{0.50, 0.25, 0.25})
	if rob := mid.SuccessProb(3); !almostEqual(rob, 0.75, tol) {
		t.Fatalf("predecessor robustness = %v, want 0.75", rob)
	}
	if s := mid.Skewness(); s <= 0 {
		t.Fatalf("predecessor skewness = %v, want positive (right skew)", s)
	}
	got := heap.Convolve(mid, execPMF())
	want := New(3, []float64{0.125, 0.3125, 0.3125, 0.1875, 0.0625})
	if !ApproxEqual(got, want, tol) {
		t.Fatalf("Figure 3c convolution = %v, want %v", got, want)
	}
	if rob := got.SuccessProb(5); !almostEqual(rob, 0.75, tol) {
		t.Errorf("successor robustness = %v, want 0.75", rob)
	}
}

func TestConvolveEmptyOperands(t *testing.T) {
	var z PMF
	if got := heap.Convolve(&z, execPMF()); !got.IsZero() {
		t.Error("convolving a zero PMF should be zero")
	}
	if got := heap.Convolve(execPMF(), &z); !got.IsZero() {
		t.Error("convolving with a zero PMF should be zero")
	}
}

func TestConvolveWithImpulseIsShift(t *testing.T) {
	e := execPMF()
	got := heap.Convolve(Impulse(10), e)
	if !ApproxEqual(got, e.Shift(10), tol) {
		t.Errorf("conv with impulse = %v, want %v", got, e.Shift(10))
	}
}

func TestConvolveDropNoDropMatchesPlain(t *testing.T) {
	prev := New(3, []float64{0.50, 0.25, 0.25})
	res := heap.ConvolveDrop(prev, execPMF(), 7, NoDrop)
	plain := heap.Convolve(prev, execPMF())
	if !ApproxEqual(res.Free, plain, tol) {
		t.Errorf("NoDrop Free = %v, want %v", res.Free, plain)
	}
	if !almostEqual(res.Success, plain.SuccessProb(7), tol) {
		t.Errorf("NoDrop Success = %v, want %v", res.Success, plain.SuccessProb(7))
	}
}

// TestConvolveDropPendingCarriesMass checks Eq. 3/4 semantics: predecessor
// mass at or after the task's deadline is carried into the Free PMF
// unchanged (the task never starts), and only execution mass counts toward
// success.
func TestConvolveDropPendingCarriesMass(t *testing.T) {
	// Predecessor finishes at 2 (60%) or at 6 (40%); deadline is 5.
	prev := New(2, []float64{0.6, 0, 0, 0, 0.4})
	exec := New(1, []float64{0.5, 0.5}) // 1 or 2 ticks
	res := heap.ConvolveDrop(prev, exec, 5, PendingDrop)

	// Execution only from the start at 2: completes at 3 (.3) or 4 (.3).
	// Carried mass: .4 at tick 6.
	want := &PMF{}
	want.AddMass(3, 0.3)
	want.AddMass(4, 0.3)
	want.AddMass(6, 0.4)
	if !ApproxEqual(res.Free, want, tol) {
		t.Errorf("Free = %v, want %v", res.Free, want)
	}
	if !almostEqual(res.Success, 0.6, tol) {
		t.Errorf("Success = %v, want 0.6", res.Success)
	}
	if !almostEqual(res.Free.Mass(), 1, tol) {
		t.Errorf("Free mass = %v, want 1", res.Free.Mass())
	}
}

// TestConvolveDropPendingLateCompletion checks that execution that starts
// before the deadline but finishes after it stays in the Free PMF at its
// true completion tick (the machine remains busy) while not counting as
// success.
func TestConvolveDropPendingLateCompletion(t *testing.T) {
	prev := Impulse(4)                  // starts at 4
	exec := New(1, []float64{0.5, 0.5}) // finish 5 or 6
	res := heap.ConvolveDrop(prev, exec, 5, PendingDrop)
	if !almostEqual(res.Success, 0.5, tol) {
		t.Errorf("Success = %v, want 0.5", res.Success)
	}
	if !almostEqual(res.Free.At(6), 0.5, tol) {
		t.Errorf("late mass at 6 = %v, want 0.5", res.Free.At(6))
	}
}

// TestConvolveDropEvictCollapsesLateMass checks Eq. 5: execution mass that
// would land strictly after the deadline collapses onto the deadline (the
// task is killed there, freeing the machine), and completion exactly at
// the deadline still counts as success.
func TestConvolveDropEvictCollapsesLateMass(t *testing.T) {
	prev := Impulse(4)
	exec := New(1, []float64{0.25, 0.5, 0.25}) // finish 5, 6 or 7
	res := heap.ConvolveDrop(prev, exec, 5, Evict)
	if !almostEqual(res.Success, 0.25, tol) {
		t.Errorf("Success = %v, want 0.25", res.Success)
	}
	// Mass at 5 = on-time completion (.25) + evicted (.75).
	if !almostEqual(res.Free.At(5), 1.0, tol) {
		t.Errorf("Free at deadline = %v, want 1.0", res.Free.At(5))
	}
	if got := res.Free.End(); got != 5 {
		t.Errorf("Free End = %d, want 5 (nothing may outlive the deadline)", got)
	}
}

// TestConvolveDropEvictCarriedMassStays: under Evict, carried predecessor
// mass (task never started) may still lie beyond the task's deadline — the
// machine stays busy with the predecessor.
func TestConvolveDropEvictCarriedMassStays(t *testing.T) {
	prev := New(2, []float64{0.5, 0, 0, 0, 0, 0.5}) // finishes at 2 or 7
	exec := Impulse(1)                              // exactly 1 tick
	res := heap.ConvolveDrop(prev, exec, 5, Evict)
	if !almostEqual(res.Success, 0.5, tol) {
		t.Errorf("Success = %v, want 0.5", res.Success)
	}
	if !almostEqual(res.Free.At(3), 0.5, tol) {
		t.Errorf("completion mass at 3 = %v, want 0.5", res.Free.At(3))
	}
	if !almostEqual(res.Free.At(7), 0.5, tol) {
		t.Errorf("carried mass at 7 = %v, want 0.5", res.Free.At(7))
	}
}

// TestConvolveDropDeadlineBeforeSupport: a deadline before any possible
// start means the task can never run; all of prev is carried.
func TestConvolveDropDeadlineBeforeSupport(t *testing.T) {
	prev := New(10, []float64{0.5, 0.5})
	exec := execPMF()
	for _, mode := range []DropMode{PendingDrop, Evict} {
		res := heap.ConvolveDrop(prev, exec, 5, mode)
		if !almostEqual(res.Success, 0, tol) {
			t.Errorf("%v: Success = %v, want 0", mode, res.Success)
		}
		if !ApproxEqual(res.Free, prev, tol) {
			t.Errorf("%v: Free = %v, want carried prev %v", mode, res.Free, prev)
		}
	}
}

// TestConvolveDropMassConservation: all three modes conserve probability
// mass exactly (completion + eviction + carry = 1).
func TestConvolveDropMassConservation(t *testing.T) {
	prev := New(2, []float64{0.1, 0.2, 0.3, 0.2, 0.1, 0.1})
	exec := New(1, []float64{0.3, 0.4, 0.2, 0.1})
	for _, mode := range []DropMode{NoDrop, PendingDrop, Evict} {
		for _, deadline := range []int64{0, 3, 5, 7, 100} {
			res := heap.ConvolveDrop(prev, exec, deadline, mode)
			if !almostEqual(res.Free.Mass(), 1, 1e-9) {
				t.Errorf("mode=%v δ=%d: Free mass = %v, want 1", mode, deadline, res.Free.Mass())
			}
			if res.Success < -tol || res.Success > 1+tol {
				t.Errorf("mode=%v δ=%d: Success = %v out of [0,1]", mode, deadline, res.Success)
			}
		}
	}
}

// TestEvictSuccessLowerThanPending: eviction can only remove late
// completions, so success probabilities agree between B and C for the same
// inputs.
func TestEvictSuccessMatchesPending(t *testing.T) {
	prev := New(2, []float64{0.25, 0.25, 0.25, 0.25})
	exec := New(1, []float64{0.5, 0.3, 0.2})
	for _, deadline := range []int64{3, 5, 8} {
		b := heap.ConvolveDrop(prev, exec, deadline, PendingDrop)
		c := heap.ConvolveDrop(prev, exec, deadline, Evict)
		if !almostEqual(b.Success, c.Success, tol) {
			t.Errorf("δ=%d: pending success %v != evict success %v", deadline, b.Success, c.Success)
		}
	}
}

// TestEvictFreeDominatesPending: the evict Free PMF is stochastically no
// later than the pending one — eviction frees machines earlier, which is
// the mechanism behind the paper's robustness gain.
func TestEvictFreeDominatesPending(t *testing.T) {
	prev := New(2, []float64{0.25, 0.25, 0.25, 0.25})
	exec := New(1, []float64{0.5, 0.3, 0.2})
	deadline := int64(5)
	b := heap.ConvolveDrop(prev, exec, deadline, PendingDrop)
	c := heap.ConvolveDrop(prev, exec, deadline, Evict)
	lo := b.Free.Start()
	if c.Free.Start() < lo {
		lo = c.Free.Start()
	}
	hi := b.Free.End()
	if c.Free.End() > hi {
		hi = c.Free.End()
	}
	for tick := lo; tick <= hi; tick++ {
		if c.Free.CDF(tick) < b.Free.CDF(tick)-tol {
			t.Fatalf("evict CDF(%d)=%v < pending CDF(%d)=%v", tick, c.Free.CDF(tick), tick, b.Free.CDF(tick))
		}
	}
}

// TestChainCompletion walks a three-task FCFS queue the way the mapper
// evaluates one: each entry's Free feeds the next entry's ConvolveDrop.
func TestChainCompletion(t *testing.T) {
	prev := Impulse(0)
	var results []Result
	for _, deadline := range []int64{4, 6, 8} {
		res := heap.ConvolveDrop(prev, execPMF(), deadline, PendingDrop)
		results = append(results, res)
		prev = res.Free
	}
	// First task starts at 0: completes at 1..3, all before deadline 4.
	if !almostEqual(results[0].Success, 1, tol) {
		t.Errorf("first success = %v, want 1", results[0].Success)
	}
	for i := range results {
		if results[i].Success < 0 || results[i].Success > 1 {
			t.Errorf("chain success[%d] = %v out of range", i, results[i].Success)
		}
		if !almostEqual(results[i].Free.Mass(), 1, 1e-9) {
			t.Errorf("chain Free[%d] mass = %v, want 1", i, results[i].Free.Mass())
		}
	}
}

func TestDropModeString(t *testing.T) {
	cases := map[DropMode]string{NoDrop: "nodrop", PendingDrop: "pending", Evict: "evict", DropMode(9): "DropMode(9)"}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(mode), got, want)
		}
	}
}

// TestDroppingImprovesSuccessor demonstrates the core thesis of Section IV:
// excluding a (dropped) predecessor from the convolution improves the
// success probability of the task behind it.
func TestDroppingImprovesSuccessor(t *testing.T) {
	base := Impulse(0)
	doomed := New(8, []float64{0.5, 0.5}) // a slow predecessor
	exec := execPMF()
	deadline := int64(6)

	withPred := heap.ConvolveDrop(heap.Convolve(base, doomed), exec, deadline, PendingDrop)
	withoutPred := heap.ConvolveDrop(base, exec, deadline, PendingDrop)
	if withoutPred.Success <= withPred.Success {
		t.Errorf("dropping predecessor did not help: %v <= %v", withoutPred.Success, withPred.Success)
	}
	if math.Abs(withoutPred.Success-1) > tol {
		t.Errorf("unobstructed success = %v, want 1", withoutPred.Success)
	}
}
