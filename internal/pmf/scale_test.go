package pmf

import (
	"math"
	"testing"
)

func TestScaleTicksIdentity(t *testing.T) {
	p := New(10, []float64{0.25, 0.5, 0.25})
	if got := ScaleTicks(p, 1); got != p {
		t.Error("factor 1 must return the PMF itself")
	}
}

func TestScaleTicksStretch(t *testing.T) {
	p := New(10, []float64{0.25, 0.5, 0.25}) // impulses at 10, 11, 12
	q := ScaleTicks(p, 2)
	for _, c := range []struct {
		tick int64
		want float64
	}{{20, 0.25}, {22, 0.5}, {24, 0.25}} {
		if got := q.At(c.tick); got != c.want {
			t.Errorf("At(%d) = %v, want %v", c.tick, got, c.want)
		}
	}
	if m := q.Mass(); math.Abs(m-1) > 1e-12 {
		t.Errorf("mass = %v, want 1", m)
	}
}

func TestScaleTicksMergesCollisions(t *testing.T) {
	// Shrinking by 0.5: ticks 10 and 11 both ceil to 5 and 6? ceil(10*.5)=5,
	// ceil(11*.5)=6, ceil(12*.5)=6 — 11 and 12 collide.
	p := New(10, []float64{0.25, 0.5, 0.25})
	q := ScaleTicks(p, 0.5)
	if got := q.At(5); got != 0.25 {
		t.Errorf("At(5) = %v, want 0.25", got)
	}
	if got := q.At(6); got != 0.75 {
		t.Errorf("At(6) = %v, want 0.75 (merged)", got)
	}
	if m := q.Mass(); math.Abs(m-1) > 1e-12 {
		t.Errorf("mass = %v, want 1", m)
	}
}

func TestScaleTicksClampsToOne(t *testing.T) {
	p := New(1, []float64{1}) // a 1-tick execution
	q := ScaleTicks(p, 0.25)  // would scale to tick 1 (ceil 0.25 → 1)
	if got := q.At(1); got != 1 {
		t.Errorf("mass at tick 1 = %v, want 1 (durations never reach 0)", got)
	}
}

func TestScaleTicksMeanScalesApproximately(t *testing.T) {
	p := New(40, []float64{0.1, 0.2, 0.4, 0.2, 0.1})
	for _, f := range []float64{1.5, 2, 3.25} {
		q := ScaleTicks(p, f)
		want := p.Mean() * f
		if got := q.Mean(); math.Abs(got-want) > 1 { // ceil rounds up by < 1 tick
			t.Errorf("factor %v: mean %v, want ≈ %v", f, got, want)
		}
	}
}

func TestScaleTicksInvalidFactorPanics(t *testing.T) {
	p := New(10, []float64{1})
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("factor %v did not panic", f)
				}
			}()
			ScaleTicks(p, f)
		}()
	}
}

func TestScaleDur(t *testing.T) {
	if got := ScaleDur(10, 1); got != 10 {
		t.Errorf("ScaleDur(10,1) = %d", got)
	}
	if got := ScaleDur(10, 2.5); got != 25 {
		t.Errorf("ScaleDur(10,2.5) = %d, want 25", got)
	}
	if got := ScaleDur(0, 3); got != 0 {
		t.Errorf("ScaleDur(0,3) = %d, want 0 (no progress at any speed)", got)
	}
	if got := ScaleDur(1, 0.1); got != 1 {
		t.Errorf("ScaleDur(1,0.1) = %d, want 1 (clamped)", got)
	}
}
