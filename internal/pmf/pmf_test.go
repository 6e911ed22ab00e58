package pmf

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// variance returns the distribution variance of p.
func variance(p *PMF) float64 {
	m := p.Mass()
	if m == 0 {
		return 0
	}
	mu := p.Mean()
	var s float64
	for i, v := range p.probs {
		d := float64(p.start+int64(i)) - mu
		s += v * d * d
	}
	return s / m
}

const tol = 1e-12

// heap is the nil arena: its methods allocate their results on the heap.
var heap *Arena

// ApproxEqual reports whether two PMFs agree impulse-by-impulse within tol.
func ApproxEqual(a, b *PMF, tol float64) bool {
	if a.IsZero() && b.IsZero() {
		return true
	}
	for t := min(a.start, b.start); t <= max(a.End(), b.End()); t++ {
		if math.Abs(a.At(t)-b.At(t)) > tol {
			return false
		}
	}
	return true
}

func TestNewTrimsZeros(t *testing.T) {
	p := New(10, []float64{0, 0, 0.5, 0.5, 0, 0})
	if got := p.Start(); got != 12 {
		t.Errorf("Start = %d, want 12", got)
	}
	if got := p.End(); got != 13 {
		t.Errorf("End = %d, want 13", got)
	}
	if got := p.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

func TestNewCopiesInput(t *testing.T) {
	src := []float64{0.5, 0.5}
	p := New(0, src)
	src[0] = 99
	if got := p.At(0); got != 0.5 {
		t.Errorf("At(0) = %v after mutating source, want 0.5", got)
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with negative probability did not panic")
		}
	}()
	New(0, []float64{0.5, -0.1})
}

func TestImpulse(t *testing.T) {
	p := Impulse(7)
	if got := p.At(7); got != 1 {
		t.Errorf("At(7) = %v, want 1", got)
	}
	if got := p.Mass(); got != 1 {
		t.Errorf("Mass = %v, want 1", got)
	}
	if got := p.Mean(); got != 7 {
		t.Errorf("Mean = %v, want 7", got)
	}
	if got := variance(p); got != 0 {
		t.Errorf("Variance = %v, want 0", got)
	}
}

func TestZeroPMF(t *testing.T) {
	var p PMF
	if !p.IsZero() {
		t.Error("zero value should be IsZero")
	}
	if got := p.Mass(); got != 0 {
		t.Errorf("Mass = %v, want 0", got)
	}
	if got := p.CDF(100); got != 0 {
		t.Errorf("CDF = %v, want 0", got)
	}
	if got := p.Mean(); got != 0 {
		t.Errorf("Mean = %v, want 0", got)
	}
}

func TestAtOutOfRange(t *testing.T) {
	p := New(5, []float64{1})
	for _, tick := range []int64{4, 6, -100, 100} {
		if got := p.At(tick); got != 0 {
			t.Errorf("At(%d) = %v, want 0", tick, got)
		}
	}
}

func TestNormalize(t *testing.T) {
	p := New(0, []float64{1, 2, 1})
	p.Normalize()
	if !almostEqual(p.Mass(), 1, tol) {
		t.Errorf("Mass after Normalize = %v, want 1", p.Mass())
	}
	if !almostEqual(p.At(1), 0.5, tol) {
		t.Errorf("At(1) = %v, want 0.5", p.At(1))
	}
}

func TestShift(t *testing.T) {
	p := New(2, []float64{0.25, 0.5, 0.25})
	q := p.Shift(10)
	if got := q.Start(); got != 12 {
		t.Errorf("shifted Start = %d, want 12", got)
	}
	if !almostEqual(q.Mean(), p.Mean()+10, tol) {
		t.Errorf("shifted Mean = %v, want %v", q.Mean(), p.Mean()+10)
	}
	// Original untouched.
	if got := p.Start(); got != 2 {
		t.Errorf("original Start mutated to %d", got)
	}
}

func TestCDFAndSuccessProb(t *testing.T) {
	p := New(1, []float64{0.25, 0.5, 0.25}) // impulses at 1, 2, 3
	cases := []struct {
		t    int64
		want float64
	}{
		{0, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := p.CDF(c.t); !almostEqual(got, c.want, tol) {
			t.Errorf("CDF(%d) = %v, want %v", c.t, got, c.want)
		}
		if got := p.SuccessProb(c.t); !almostEqual(got, c.want, tol) {
			t.Errorf("SuccessProb(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestMeanVariance(t *testing.T) {
	p := New(1, []float64{0.25, 0.5, 0.25})
	if !almostEqual(p.Mean(), 2, tol) {
		t.Errorf("Mean = %v, want 2", p.Mean())
	}
	if !almostEqual(variance(p), 0.5, tol) {
		t.Errorf("variance = %v, want 0.5", variance(p))
	}
}

func TestSkewnessSigns(t *testing.T) {
	sym := New(1, []float64{0.25, 0.5, 0.25})
	if got := sym.Skewness(); !almostEqual(got, 0, tol) {
		t.Errorf("symmetric skewness = %v, want 0", got)
	}
	// Tail to the right -> positive skew.
	right := New(1, []float64{0.7, 0.2, 0.05, 0.05})
	if got := right.Skewness(); got <= 0 {
		t.Errorf("right-tailed skewness = %v, want > 0", got)
	}
	// Tail to the left -> negative skew.
	left := New(1, []float64{0.05, 0.05, 0.2, 0.7})
	if got := left.Skewness(); got >= 0 {
		t.Errorf("left-tailed skewness = %v, want < 0", got)
	}
}

func TestBoundedSkewnessClamps(t *testing.T) {
	// A long right tail produces |S| > 1, which must clamp to 1.
	p := New(1, []float64{0.9, 0.05, 0.01, 0.01, 0.01, 0.01, 0.005, 0.005})
	if raw := p.Skewness(); raw <= 1 {
		t.Skipf("test distribution not extreme enough (S=%v); adjust", raw)
	}
	if got := p.BoundedSkewness(); got != 1 {
		t.Errorf("BoundedSkewness = %v, want 1", got)
	}
}

func TestConditionAtLeast(t *testing.T) {
	p := New(1, []float64{0.25, 0.5, 0.25})
	q := p.ConditionAtLeast(2)
	if got := q.Start(); got != 2 {
		t.Errorf("conditioned Start = %d, want 2", got)
	}
	if !almostEqual(q.Mass(), 1, tol) {
		t.Errorf("conditioned Mass = %v, want 1", q.Mass())
	}
	if !almostEqual(q.At(2), 0.5/0.75, tol) {
		t.Errorf("conditioned At(2) = %v, want %v", q.At(2), 0.5/0.75)
	}
	// Conditioning before the support is the identity.
	if r := p.ConditionAtLeast(0); !ApproxEqual(r, p, tol) {
		t.Error("conditioning before support should be identity")
	}
	// Conditioning past the support collapses to an impulse at t.
	r := p.ConditionAtLeast(10)
	if got := r.At(10); got != 1 {
		t.Errorf("overdue conditioning At(10) = %v, want 1", got)
	}
}

func TestAddMassGrowsSupport(t *testing.T) {
	p := New(5, []float64{1})
	p.AddMass(2, 0.5)  // grow left
	p.AddMass(9, 0.25) // grow right
	p.AddMass(5, 0.25) // in place
	if got := p.Start(); got != 2 {
		t.Errorf("Start = %d, want 2", got)
	}
	if got := p.End(); got != 9 {
		t.Errorf("End = %d, want 9", got)
	}
	if !almostEqual(p.Mass(), 2.0, tol) {
		t.Errorf("Mass = %v, want 2.0", p.Mass())
	}
	if !almostEqual(p.At(5), 1.25, tol) {
		t.Errorf("At(5) = %v, want 1.25", p.At(5))
	}
}

func TestAddMassOnEmpty(t *testing.T) {
	var p PMF
	p.AddMass(3, 0.7)
	if got := p.At(3); got != 0.7 {
		t.Errorf("At(3) = %v, want 0.7", got)
	}
}

func TestImpulsesRoundTrip(t *testing.T) {
	p := New(4, []float64{0.125, 0, 0.375, 0.5})
	ticks, probs := p.Impulses()
	if len(ticks) != 3 {
		t.Fatalf("got %d impulses, want 3", len(ticks))
	}
	wantTicks := []int64{4, 6, 7}
	wantProbs := []float64{0.125, 0.375, 0.5}
	for i := range ticks {
		if ticks[i] != wantTicks[i] || !almostEqual(probs[i], wantProbs[i], tol) {
			t.Errorf("impulse %d = (%d, %v), want (%d, %v)", i, ticks[i], probs[i], wantTicks[i], wantProbs[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(1, []float64{0.5, 0.5})
	q := p.Clone()
	q.AddMass(1, 0.5)
	if !almostEqual(p.At(1), 0.5, tol) {
		t.Error("Clone shares storage with original")
	}
}

func TestStringRendering(t *testing.T) {
	p := New(1, []float64{0.25, 0.75})
	if got, want := p.String(), "{1:0.25 2:0.75}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	var z PMF
	if got := z.String(); got != "{}" {
		t.Errorf("zero String = %q, want {}", got)
	}
}

func TestApproxEqual(t *testing.T) {
	a := New(1, []float64{0.5, 0.5})
	b := New(1, []float64{0.5, 0.5 + 1e-15})
	if !ApproxEqual(a, b, 1e-9) {
		t.Error("nearly identical PMFs reported unequal")
	}
	c := New(2, []float64{0.5, 0.5})
	if ApproxEqual(a, c, 1e-9) {
		t.Error("shifted PMFs reported equal")
	}
}

func TestCompactPreservesMassAndMean(t *testing.T) {
	probs := make([]float64, 200)
	for i := range probs {
		probs[i] = float64(i%7) + 1
	}
	p := New(100, probs)
	p.Normalize()
	c := heap.Compact(p, 32)
	if c.NumImpulses() > 32 {
		t.Errorf("compacted NumImpulses = %d, want <= 32", c.NumImpulses())
	}
	if !almostEqual(c.Mass(), p.Mass(), 1e-9) {
		t.Errorf("compacted Mass = %v, want %v", c.Mass(), p.Mass())
	}
	groupWidth := float64(p.Len())/32 + 1
	if math.Abs(c.Mean()-p.Mean()) > groupWidth {
		t.Errorf("compacted Mean = %v, drifted more than one group from %v", c.Mean(), p.Mean())
	}
}

func TestCompactNarrowIsIdentity(t *testing.T) {
	p := New(1, []float64{0.25, 0.5, 0.25})
	if got := heap.Compact(p, 32); got != p {
		t.Error("Compact of a narrow PMF should return the same instance")
	}
}

func TestFromSamples(t *testing.T) {
	samples := []float64{10, 10, 10, 20, 20, 30}
	p := FromSamples(samples, 3)
	if !almostEqual(p.Mass(), 1, tol) {
		t.Errorf("Mass = %v, want 1", p.Mass())
	}
	if p.Start() < 1 {
		t.Errorf("Start = %d, want >= 1", p.Start())
	}
	if math.Abs(p.Mean()-16.67) > 4 {
		t.Errorf("Mean = %v, want near 16.67", p.Mean())
	}
}

func TestFromSamplesDegenerate(t *testing.T) {
	p := FromSamples([]float64{42, 42, 42}, 10)
	if got := p.At(42); !almostEqual(got, 1, tol) {
		t.Errorf("degenerate At(42) = %v, want 1", got)
	}
}

func TestRemainingAfter(t *testing.T) {
	p := New(2, []float64{0.25, 0.25, 0.25, 0.25}) // duration 2..5
	r := p.RemainingAfter(3)                       // given X > 3: X in {4,5}, remaining {1,2}
	if got := r.Start(); got != 1 {
		t.Errorf("remaining Start = %d, want 1", got)
	}
	if !almostEqual(r.At(1), 0.5, tol) || !almostEqual(r.At(2), 0.5, tol) {
		t.Errorf("remaining = %v, want {1:0.5 2:0.5}", r)
	}
	if !almostEqual(r.Mass(), 1, tol) {
		t.Errorf("remaining mass = %v", r.Mass())
	}
	// No consumption: identity copy.
	if !ApproxEqual(p.RemainingAfter(0), p, tol) {
		t.Error("RemainingAfter(0) should be identity")
	}
	// Fully outrun: collapses to one tick.
	if got := p.RemainingAfter(10); got.At(1) != 1 {
		t.Errorf("outrun remaining = %v, want impulse at 1", got)
	}
}

func TestRemainingAfterMeanDecreases(t *testing.T) {
	p := New(5, []float64{0.2, 0.2, 0.2, 0.2, 0.2})
	last := p.Mean()
	for c := int64(1); c < 8; c++ {
		m := p.RemainingAfter(c).Mean()
		if m > last+tol {
			t.Fatalf("expected remaining mean to shrink with consumption: c=%d mean=%v last=%v", c, m, last)
		}
		last = m
	}
}
