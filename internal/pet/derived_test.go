package pet

import (
	"math"
	"slices"
	"sync"
	"testing"

	"taskprune/internal/pmf"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

func scaledTestMatrix(t *testing.T) *Matrix {
	t.Helper()
	cfg := BuildConfig{Samples: 300, Bins: 16, MaxImpulses: 16, ShapeLo: 8, ShapeHi: 12}
	m, err := Build([][]float64{{10, 40}, {40, 10}}, cfg, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameBits reports whether two PMFs have the same impulses, bit for bit.
func sameBits(a, b *pmf.PMF) bool {
	at, ap := a.Impulses()
	bt, bp := b.Impulses()
	return slices.Equal(at, bt) && slices.EqualFunc(ap, bp, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

func TestScaledFactorOneIsNominal(t *testing.T) {
	m := scaledTestMatrix(t)
	e := m.Entry(0, 1, 1, 0)
	if e.PMF != m.PMF(0, 1) {
		t.Error("factor 1 PMF is not the nominal entry pointer")
	}
	if e.Prof != m.Profile(0, 1) {
		t.Error("factor 1 profile is not the nominal entry pointer")
	}
	if e.Prof.Mean() != m.PMF(0, 1).Mean() {
		t.Error("factor 1 mean differs from nominal")
	}
}

func TestScaledEntryCachedAndConsistent(t *testing.T) {
	m := scaledTestMatrix(t)
	a := m.Entry(1, 0, 2.0, 0)
	b := m.Entry(1, 0, 2.0, 0)
	if a != b {
		t.Error("repeated lookups must hit the cache (same pointer)")
	}
	if a.Prof.PMF() != a.PMF {
		t.Error("scaled profile not built over the scaled PMF")
	}
	if math.Abs(a.PMF.Mass()-1) > 1e-9 {
		t.Errorf("scaled PMF mass = %v, want 1", a.PMF.Mass())
	}
	nominal := m.PMF(1, 0).Mean()
	if got := a.Prof.Mean(); math.Abs(got-2*nominal) > 1 {
		t.Errorf("scaled mean %v, want ≈ %v", got, 2*nominal)
	}
	// Distinct factors are distinct entries.
	if m.Entry(1, 0, 3.0, 0) == a {
		t.Error("different factors share one entry")
	}
	// A conditioned entry is the scaled entry of its factor conditioned on
	// the progress re-expressed in that factor's time base.
	want := a.PMF.RemainingAfter(pmf.ScaleDur(5, 2.0))
	if c := m.Entry(1, 0, 2.0, 5); !sameBits(c.PMF, want) {
		t.Error("conditioned entry is not built from the scaled entry of its factor")
	}
}

// TestScaledAndRemainingCachesConcurrent hammers the RWMutex cache with
// mixed readers and writers at once — scaled (consumed 0) and conditioned lookups
// interleaved across goroutines, cells, factors, and consumed values, so
// first-populate writes race against steady-state reads. The Matrix is
// shared across parallel trials, so this must be clean under -race (make
// race-stream runs it there) and every goroutine must observe identical
// cached pointers for identical keys.
func TestScaledAndRemainingCachesConcurrent(t *testing.T) {
	m := scaledTestMatrix(t)
	factors := []float64{1, 1.5, 2, 2.5, 3}
	consumed := []int64{0, 3, 5, 8}
	const goroutines, iters = 8, 400
	var wg sync.WaitGroup
	scaled := make([][]*Entry, goroutines)
	remaining := make([][]*Entry, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tt, mi := i%2, (i/2)%2
				f := factors[i%len(factors)]
				c := consumed[i%len(consumed)]
				scaled[g] = append(scaled[g], m.Entry(task.Type(tt), mi, f, 0))
				remaining[g] = append(remaining[g], m.Entry(task.Type(tt), mi, f, c))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range scaled[g] {
			if scaled[g][i] != scaled[0][i] {
				t.Fatalf("goroutine %d observed a different scaled entry at %d", g, i)
			}
			if remaining[g][i] != remaining[0][i] {
				t.Fatalf("goroutine %d observed a different remaining entry at %d", g, i)
			}
		}
	}
	// Negative consumed is no banked progress: the scaled entry itself.
	if m.Entry(0, 0, 2, -1) != m.Entry(0, 0, 2, 0) {
		t.Fatal("consumed -1 must be exactly the scaled entry")
	}
}

// TestScaledEntryConcurrent exercises the lazily populated cache from many
// goroutines with scaled (consumed 0) lookups only (the Matrix is shared
// across parallel trials).
func TestScaledEntryConcurrent(t *testing.T) {
	m := scaledTestMatrix(t)
	factors := []float64{1.5, 2, 2.5, 3}
	var wg sync.WaitGroup
	results := make([][]*Entry, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f := factors[i%len(factors)]
				results[g] = append(results[g], m.Entry(0, 0, f, 0))
			}
		}(g)
	}
	wg.Wait()
	// All goroutines must have observed the same four entries.
	for g := 1; g < 8; g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d observed a different entry at %d", g, i)
			}
		}
	}
}

// TestConditionedBoundKeepsScaledEntries: the cache's bound counts
// conditioned entries only. Once it holds maxConditionedEntries of them, a
// new scaled entry is still stored (two lookups, one pointer), while a new
// conditioned entry is transient (two lookups, two pointers, one set of
// bits) and an entry stored before the bound is still served.
func TestConditionedBoundKeepsScaledEntries(t *testing.T) {
	m := scaledTestMatrix(t)
	// Factor 1 conditions the nominal entries, so the fill stores exactly
	// maxConditionedEntries entries and no scaled one.
	const perCell = maxConditionedEntries / 4
	for tt := 0; tt < 2; tt++ {
		for mi := 0; mi < 2; mi++ {
			for c := int64(1); c <= perCell; c++ {
				m.Entry(task.Type(tt), mi, 1, c)
			}
		}
	}
	if m.Entry(1, 1, 1, 7) != m.Entry(1, 1, 1, 7) {
		t.Fatal("an entry stored below the bound is no longer served")
	}
	if m.Entry(0, 0, 2, 0) != m.Entry(0, 0, 2, 0) {
		t.Fatal("a scaled entry past the conditioned bound was not stored")
	}
	for _, k := range []struct {
		f float64
		c int64
	}{{1, perCell + 3}, {2, 3}} {
		a, b := m.Entry(0, 0, k.f, k.c), m.Entry(0, 0, k.f, k.c)
		if a == b {
			t.Fatalf("%+v: a conditioned entry past the bound was stored", k)
		}
		if !sameBits(a.PMF, b.PMF) || math.Float64bits(a.Prof.Mean()) != math.Float64bits(b.Prof.Mean()) {
			t.Fatalf("%+v: transient conditioned entries differ", k)
		}
	}
}
