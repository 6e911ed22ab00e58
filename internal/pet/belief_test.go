package pet

import (
	"math"
	"testing"

	"taskprune/internal/stats"
)

// TestFrozenBeliefServesNominal: a frozen belief answers every lookup with
// the truth's factor-1 entries — same pointers, so a frozen run on a
// static fleet is bit-identical to the oracle — no matter what degradation
// factor the caller reports.
func TestFrozenBeliefServesNominal(t *testing.T) {
	m := scaledTestMatrix(t)
	b := NewFrozenBelief(m)
	for _, f := range []float64{1, 2, 3.5} {
		if b.Entry(0, 1, f, 0) != m.Entry(0, 1, 1, 0) {
			t.Fatalf("factor %v: frozen entry is not the nominal truth entry", f)
		}
		if b.Entry(0, 1, f, 0).PMF != m.PMF(0, 1) {
			t.Fatalf("factor %v: frozen PMF is not the nominal pointer", f)
		}
		if b.Entry(0, 1, f, 0).Prof.Mean() != m.PMF(0, 1).Mean() {
			t.Fatalf("factor %v: frozen mean differs from nominal", f)
		}
		if b.Entry(0, 1, f, 5) != m.Entry(0, 1, 1, 5) {
			t.Fatalf("factor %v: frozen remaining entry is not the nominal conditioned entry", f)
		}
	}
}

// TestOnlineBeliefColdServesPrior: before any cell reaches the sample
// floor, the online belief is exactly a frozen view of its prior.
func TestOnlineBeliefColdServesPrior(t *testing.T) {
	m := scaledTestMatrix(t)
	b := NewOnlineBelief(m, 10, 5, 16)
	if b.Entry(0, 0, 2, 0) != m.Entry(0, 0, 1, 0) {
		t.Fatal("cold cell must serve the prior's nominal entry")
	}
	if b.Entry(0, 0, 2, 5) != m.Entry(0, 0, 1, 5) {
		t.Fatal("cold cell must serve the prior's nominal conditioned entry")
	}
	if mean, learned := b.CellMean(0, 0); learned || mean != m.PMF(0, 0).Mean() {
		t.Fatalf("cold cell mean %v learned=%v, want prior %v unlearned", mean, learned, m.PMF(0, 0).Mean())
	}
}

// TestOnlineBeliefRespectsFloorAndCadence: the first rebuild fires exactly
// at minSamples, later ones exactly every refresh observations, and only
// the observed cell learns.
func TestOnlineBeliefRespectsFloorAndCadence(t *testing.T) {
	m := scaledTestMatrix(t)
	b := NewOnlineBelief(m, 4, 6, 16)
	for i := 1; i <= 5; i++ {
		if b.Observe(0, 0, int64(9+i%3)) {
			t.Fatalf("rebuild after %d observations, floor is 6", i)
		}
	}
	if !b.Observe(0, 0, 10) {
		t.Fatal("no rebuild at the sample floor")
	}
	if _, learned := b.CellMean(0, 0); !learned {
		t.Fatal("cell not learned after its first rebuild")
	}
	if _, learned := b.CellMean(0, 1); learned {
		t.Fatal("an unobserved cell learned")
	}
	for i := 1; i <= 3; i++ {
		if b.Observe(0, 0, 10) {
			t.Fatalf("rebuild %d observations after the last, cadence is 4", i)
		}
	}
	if !b.Observe(0, 0, 10) {
		t.Fatal("no rebuild at the refresh cadence")
	}
	if b.Refreshes() != 2 || b.Observations() != 10 {
		t.Fatalf("refreshes %d observations %d, want 2 and 10", b.Refreshes(), b.Observations())
	}
}

// TestOnlineBeliefConvergence is the acceptance-criteria convergence
// bound: feeding an online cell 400 gamma-distributed observations drawn
// from a *moved* truth (the prior's mean tripled — a 3x degradation the
// reported factor never discloses) must land the believed per-cell mean
// within 10% of the moved truth's, and the believed PMF's mass within
// 1e-9 of 1.
func TestOnlineBeliefConvergence(t *testing.T) {
	m := scaledTestMatrix(t)
	b := NewOnlineBelief(m, 25, 10, 32)
	rng := stats.NewRNG(7)
	trueMean := 3 * m.entries[0][0].Mean // truth moved: 3x slower than the prior
	const n = 400
	for i := 0; i < n; i++ {
		d := rng.Gamma(10, trueMean/10)
		if d < 1 {
			d = 1
		}
		b.Observe(0, 0, int64(math.Round(d)))
	}
	mean, learned := b.CellMean(0, 0)
	if !learned {
		t.Fatalf("cell unlearned after %d observations", n)
	}
	if rel := math.Abs(mean-trueMean) / trueMean; rel > 0.10 {
		t.Fatalf("believed mean %.2f vs moved truth %.2f: off by %.1f%%, tolerance 10%%", mean, trueMean, 100*rel)
	}
	e := b.Entry(0, 0, 1, 0)
	if math.Abs(e.PMF.Mass()-1) > 1e-9 {
		t.Fatalf("learned PMF mass %v, want 1", e.PMF.Mass())
	}
	// The reported factor is ignored once learned: the observations already
	// embody the true degradation.
	if b.Entry(0, 0, 2, 0) != e {
		t.Fatal("learned lookups must ignore the reported factor")
	}
}

// TestOnlineBeliefRemainingCache: conditioned entries are cached per
// (cell, scaled consumed) and the cache is discarded on rebuild.
func TestOnlineBeliefRemainingCache(t *testing.T) {
	m := scaledTestMatrix(t)
	b := NewOnlineBelief(m, 100, 5, 16)
	for i := 0; i < 5; i++ {
		b.Observe(0, 0, 40)
	}
	if _, learned := b.CellMean(0, 0); !learned {
		t.Fatal("cell not learned at the floor")
	}
	r1 := b.Entry(0, 0, 1, 10)
	if r1 != b.Entry(0, 0, 1, 10) {
		t.Fatal("repeated conditioned lookups must hit the cache")
	}
	if r1 == b.Entry(0, 0, 1, 0) {
		t.Fatal("conditioned entry must differ from the unconditioned one")
	}
	// Same nominal consumed under factor 2 conditions on 2x the progress.
	if b.Entry(0, 0, 2, 10) == r1 {
		t.Fatal("distinct scaled-consumed values share one conditioned entry")
	}
	// Force a rebuild; the conditioned cache must be rebuilt too.
	for i := 0; i < 100; i++ {
		b.Observe(0, 0, 60)
	}
	if b.Entry(0, 0, 1, 10) == r1 {
		t.Fatal("conditioned cache survived a rebuild")
	}
}
