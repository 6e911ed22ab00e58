package pet

import (
	"math"
	"sync"
	"testing"

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

func TestScaledFactorOneIsNominal(t *testing.T) {
	m := scaledTestMatrix(t)
	if m.ScaledPMF(0, 1, 1) != m.PMF(0, 1) {
		t.Error("factor 1 PMF is not the nominal entry pointer")
	}
	if m.ScaledProfile(0, 1, 1) != m.Profile(0, 1) {
		t.Error("factor 1 profile is not the nominal entry pointer")
	}
	if m.ScaledProfile(0, 1, 1).Mean() != m.PMF(0, 1).Mean() {
		t.Error("factor 1 mean differs from nominal")
	}
}

func TestScaledEntryCachedAndConsistent(t *testing.T) {
	m := scaledTestMatrix(t)
	a := m.ScaledEntry(1, 0, 2.0)
	b := m.ScaledEntry(1, 0, 2.0)
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
	if got := m.ScaledProfile(1, 0, 2.0).Mean(); math.Abs(got-2*nominal) > 1 {
		t.Errorf("scaled mean %v, want ≈ %v", got, 2*nominal)
	}
	if a.Mean != 2*m.Mean(1, 0) {
		t.Errorf("ground-truth mean %v, want %v", a.Mean, 2*m.Mean(1, 0))
	}
	// Distinct factors are distinct entries.
	if m.ScaledEntry(1, 0, 3.0) == a {
		t.Error("different factors share one entry")
	}
}

// TestScaledAndRemainingCachesConcurrent hammers both RWMutex caches with
// mixed readers and writers at once — ScaledEntry and RemainingEntry
// lookups interleaved across goroutines, cells, factors, and consumed
// values, so first-populate writes race against steady-state reads on both
// maps. The Matrix is shared across parallel trials, so this must be clean
// under -race (make race-stream runs it there) and every goroutine must
// observe identical cached pointers for identical keys.
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
				scaled[g] = append(scaled[g], m.ScaledEntry(task.Type(tt), mi, f))
				remaining[g] = append(remaining[g], m.RemainingEntry(task.Type(tt), mi, f, c))
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
	// Consumed 0 must have bypassed the remaining cache into the scaled one.
	if m.RemainingEntry(0, 0, 2, 0) != m.ScaledEntry(0, 0, 2) {
		t.Fatal("consumed 0 must be exactly ScaledEntry")
	}
}

// TestScaledEntryConcurrent exercises the lazily populated cache from many
// goroutines (the Matrix is shared across parallel trials).
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
				results[g] = append(results[g], m.ScaledEntry(0, 0, f))
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
