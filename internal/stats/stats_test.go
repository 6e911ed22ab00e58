package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(1)
	child := parent.Split()
	// Drawing from the child must not perturb the parent relative to a
	// parent that split but never used its child.
	parent2 := NewRNG(1)
	child2 := parent2.Split()
	for i := 0; i < 50; i++ {
		child.Float64()
	}
	_ = child2
	for i := 0; i < 20; i++ {
		if parent.Float64() != parent2.Float64() {
			t.Fatal("child draws perturbed parent stream")
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.UniformRange(5, 9)
		if v < 5 || v >= 9 {
			t.Fatalf("UniformRange out of bounds: %v", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("UniformRange(9,5) did not panic")
		}
	}()
	r.UniformRange(9, 5)
}

func TestGammaMoments(t *testing.T) {
	r := NewRNG(11)
	cases := []struct{ shape, scale float64 }{
		{0.5, 2.0}, {1, 1}, {2.5, 3}, {10, 0.5}, {20, 5},
	}
	const n = 60000
	for _, c := range cases {
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := r.Gamma(c.shape, c.scale)
			if v <= 0 {
				t.Fatalf("Gamma(%v,%v) produced non-positive %v", c.shape, c.scale, v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		wantMean := c.shape * c.scale
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.01 {
			t.Errorf("Gamma(%v,%v) mean = %v, want ≈ %v", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.10*wantVar+0.02 {
			t.Errorf("Gamma(%v,%v) var = %v, want ≈ %v", c.shape, c.scale, variance, wantVar)
		}
	}
}

func TestGammaMeanShape(t *testing.T) {
	r := NewRNG(13)
	const n = 40000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.GammaMeanShape(125, 4)
	}
	if mean := sum / n; math.Abs(mean-125) > 3 {
		t.Errorf("GammaMeanShape(125, 4) mean = %v, want ≈ 125", mean)
	}
}

func TestGammaPanicsOnBadParams(t *testing.T) {
	r := NewRNG(1)
	for _, f := range []func(){
		func() { r.Gamma(0, 1) },
		func() { r.Gamma(1, -1) },
		func() { r.GammaMeanShape(-5, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad parameters did not panic")
				}
			}()
			f()
		}()
	}
}

func TestGammaRateVariance(t *testing.T) {
	r := NewRNG(19)
	const n = 60000
	mean, varFrac := 40.0, 0.10
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.GammaRate(mean, varFrac)
		sum += v
		sumsq += v * v
	}
	m := sum / n
	variance := sumsq/n - m*m
	if math.Abs(m-mean) > 1 {
		t.Errorf("GammaRate mean = %v, want ≈ %v", m, mean)
	}
	// Paper: variance = 10% of the mean.
	if want := varFrac * mean; math.Abs(variance-want) > 0.3 {
		t.Errorf("GammaRate variance = %v, want ≈ %v", variance, want)
	}
	// Degenerate varFrac returns the mean deterministically.
	if got := r.GammaRate(mean, 0); got != mean {
		t.Errorf("GammaRate with varFrac 0 = %v, want %v", got, mean)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := PopVariance(xs); got != 4 {
		t.Errorf("PopVariance = %v, want 4", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || PopVariance(nil) != 0 {
		t.Error("empty-slice statistics should be 0")
	}
}

func TestBoundSkewness(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.5, 0.5}, {-0.5, -0.5}, {1.5, 1}, {-3, -1}, {math.NaN(), 0},
	}
	for _, c := range cases {
		if got := BoundSkewness(c.in); got != c.want {
			t.Errorf("BoundSkewness(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -2, 8, 0})
	if lo != -2 || hi != 8 {
		t.Errorf("MinMax = (%v, %v), want (-2, 8)", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MinMax(nil) did not panic")
		}
	}()
	MinMax(nil)
}

func TestTCritical95(t *testing.T) {
	if got := TCritical95(29); got != 2.045 {
		t.Errorf("TCritical95(29) = %v, want 2.045 (30-trial experiments)", got)
	}
	if got := TCritical95(1); got != 12.706 {
		t.Errorf("TCritical95(1) = %v, want 12.706", got)
	}
	if got := TCritical95(10000); got != 1.960 {
		t.Errorf("TCritical95(10000) = %v, want 1.960", got)
	}
	if !math.IsNaN(TCritical95(0)) {
		t.Error("TCritical95(0) should be NaN")
	}
}

func TestConfidence95(t *testing.T) {
	xs := []float64{10, 12, 14, 16, 18}
	ci := Confidence95(xs)
	if ci.Mean != 14 {
		t.Errorf("CI mean = %v, want 14", ci.Mean)
	}
	// sd = sqrt(10), sem = sqrt(2), t(4) = 2.776
	want := 2.776 * math.Sqrt2 * math.Sqrt(5) / math.Sqrt(5) // = 2.776*sqrt(2)
	if math.Abs(ci.HalfSpan-2.776*math.Sqrt(2)) > 1e-9 {
		t.Errorf("CI half-span = %v, want %v", ci.HalfSpan, want)
	}
	single := Confidence95([]float64{5})
	if single.HalfSpan != 0 || single.Mean != 5 {
		t.Errorf("single-observation CI = %+v", single)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(5, 1)   // bin 0
	h.Add(15, 2)  // bin 1
	h.Add(-3, 1)  // clamps to bin 0
	h.Add(999, 1) // clamps to bin 4
	if h.Counts[0] != 2 || h.Counts[1] != 2 || h.Counts[4] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Total != 5 {
		t.Errorf("Total = %v, want 5", h.Total)
	}
	if got := h.BinCenter(1); got != 15 {
		t.Errorf("BinCenter(1) = %v, want 15", got)
	}
}

func TestHistogramFromSamples(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	h := HistogramFromSamples(samples, 5)
	if h.Total != 10 {
		t.Errorf("Total = %v, want 10", h.Total)
	}
	var s float64
	for i, c := range h.Counts {
		s += c * h.BinCenter(i)
	}
	if mean := s / h.Total; math.Abs(mean-5.5) > 1.0 {
		t.Errorf("binned mean = %v, want ≈ 5.5", mean)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := HistogramFromSamples([]float64{7, 7, 7}, 4)
	if len(h.Counts) != 1 {
		t.Fatalf("degenerate bins = %d, want 1", len(h.Counts))
	}
	if got := h.BinCenter(0); got != 7 {
		t.Errorf("degenerate BinCenter = %v, want 7", got)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 0, 5) },
		func() { NewHistogram(0, 1, 0) },
		func() { HistogramFromSamples(nil, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid histogram construction did not panic")
				}
			}()
			f()
		}()
	}
}
