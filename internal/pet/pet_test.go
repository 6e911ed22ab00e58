package pet

import (
	"math"
	"testing"

	"taskprune/internal/stats"
	"taskprune/internal/task"
)

func testMatrix(t *testing.T) *Matrix {
	t.Helper()
	cfg := DefaultBuildConfig()
	cfg.Samples = 200 // keep unit tests fast
	m, err := Build(SPECLikeMeans(), cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestBuildDimensions(t *testing.T) {
	m := testMatrix(t)
	if got := m.NumTypes(); got != SPECNumTypes {
		t.Errorf("NumTypes = %d, want %d", got, SPECNumTypes)
	}
	if got := m.NumMachines(); got != SPECNumMachines {
		t.Errorf("NumMachines = %d, want %d", got, SPECNumMachines)
	}
}

func TestBuildEntriesNormalized(t *testing.T) {
	m := testMatrix(t)
	for ti := 0; ti < m.NumTypes(); ti++ {
		for mi := 0; mi < m.NumMachines(); mi++ {
			p := m.PMF(task.Type(ti), mi)
			if math.Abs(p.Mass()-1) > 1e-9 {
				t.Errorf("entry (%d,%d) mass = %v, want 1", ti, mi, p.Mass())
			}
			if p.Start() < 1 {
				t.Errorf("entry (%d,%d) has execution time < 1 tick", ti, mi)
			}
			if p.NumImpulses() > DefaultBuildConfig().MaxImpulses {
				t.Errorf("entry (%d,%d) has %d impulses, want <= %d", ti, mi, p.NumImpulses(), DefaultBuildConfig().MaxImpulses)
			}
		}
	}
}

func TestProfiledMeanNearTruth(t *testing.T) {
	m := testMatrix(t)
	for ti := 0; ti < m.NumTypes(); ti++ {
		for mi := 0; mi < m.NumMachines(); mi++ {
			truth := m.entries[ti][mi].Mean
			est := m.Profile(task.Type(ti), mi).Mean()
			// A few hundred gamma samples with shape as low as 1 (high
			// variance): the histogram mean should land within ~25% of
			// the ground truth.
			if math.Abs(est-truth) > 0.25*truth {
				t.Errorf("entry (%d,%d): profiled mean %v vs truth %v", ti, mi, est, truth)
			}
		}
	}
}

// TestProfileMatchesPMF pins the one spelling of a profiled mean: every
// View serves, for every cell and speed factor, a profile over exactly the
// PMF it serves, whose stored Mean is that PMF's Mean to the bit. The
// scalar heuristics, PAM's ties and pet-aware dispatch read the stored
// mean instead of rescanning the PMF, so any drift here would move their
// decisions.
func TestProfileMatchesPMF(t *testing.T) {
	m := testMatrix(t)
	frozen := NewFrozenBelief(m)
	cold := NewOnlineBelief(m, 10, 5, 16)
	learned := NewOnlineBelief(m, 10, 5, 16)
	rng := stats.NewRNG(3)
	for ti := 0; ti < m.NumTypes(); ti += 2 {
		for mi := ti % 3; mi < m.NumMachines(); mi += 3 {
			for range 5 {
				learned.Observe(task.Type(ti), mi, m.SampleExec(rng, task.Type(ti), mi))
			}
		}
	}
	if learned.Refreshes() == 0 {
		t.Fatal("no learned cells: the online belief test would only see the prior")
	}
	for _, v := range []struct {
		name string
		view View
	}{{"matrix", m}, {"frozen", frozen}, {"online-cold", cold}, {"online-learned", learned}} {
		for ti := 0; ti < m.NumTypes(); ti++ {
			for mi := 0; mi < m.NumMachines(); mi++ {
				for _, f := range []float64{1, 1.5, 3} {
					tt := task.Type(ti)
					e := v.view.Entry(tt, mi, f, 0)
					p, prof := e.PMF, e.Prof
					if prof.PMF() != p {
						t.Fatalf("%s (%d,%d) factor %v: profile wraps a different PMF", v.name, ti, mi, f)
					}
					if got, want := prof.Mean(), p.Mean(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s (%d,%d) factor %v: profile mean %v != pmf mean %v", v.name, ti, mi, f, got, want)
					}
				}
			}
		}
	}
}

func TestSampleExecPositive(t *testing.T) {
	m := testMatrix(t)
	rng := stats.NewRNG(5)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		v := m.SampleExec(rng, 0, 0)
		if v < 1 {
			t.Fatalf("SampleExec returned %d < 1", v)
		}
		sum += float64(v)
	}
	truth := m.entries[0][0].Mean
	if mean := sum / n; math.Abs(mean-truth) > 0.15*truth {
		t.Errorf("SampleExec mean %v, want ≈ %v", mean, truth)
	}
}

func TestTypeAndGrandMeans(t *testing.T) {
	m := testMatrix(t)
	var total float64
	for ti := 0; ti < m.NumTypes(); ti++ {
		tm := m.TypeMeanAcrossMachines(task.Type(ti))
		var rowSum float64
		for mi := 0; mi < m.NumMachines(); mi++ {
			rowSum += m.entries[ti][mi].Mean
		}
		if math.Abs(tm-rowSum/float64(m.NumMachines())) > 1e-9 {
			t.Errorf("TypeMeanAcrossMachines(%d) = %v, want %v", ti, tm, rowSum/8)
		}
		total += rowSum
	}
	want := total / float64(m.NumTypes()*m.NumMachines())
	if got := m.GrandMean(); math.Abs(got-want) > 1e-9 {
		t.Errorf("GrandMean = %v, want %v", got, want)
	}
}

func TestBestMachine(t *testing.T) {
	m := testMatrix(t)
	for ti := 0; ti < m.NumTypes(); ti++ {
		best := m.BestMachine(task.Type(ti))
		for mi := 0; mi < m.NumMachines(); mi++ {
			if m.entries[ti][mi].Mean < m.entries[ti][best].Mean {
				t.Errorf("type %d: machine %d beats reported best %d", ti, mi, best)
			}
		}
	}
}

func TestBuildValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	cfg := DefaultBuildConfig()
	cases := []struct {
		name  string
		means [][]float64
		cfg   BuildConfig
	}{
		{"empty", nil, cfg},
		{"empty row", [][]float64{{}}, cfg},
		{"ragged", [][]float64{{1, 2}, {1}}, cfg},
		{"non-positive mean", [][]float64{{10, -1}}, cfg},
		{"zero samples", [][]float64{{10}}, BuildConfig{Samples: 0, Bins: 4, ShapeLo: 1, ShapeHi: 2}},
		{"bad shapes", [][]float64{{10}}, BuildConfig{Samples: 10, Bins: 4, ShapeLo: 5, ShapeHi: 2}},
	}
	for _, c := range cases {
		if _, err := Build(c.means, c.cfg, rng); err == nil {
			t.Errorf("%s: Build accepted invalid input", c.name)
		}
	}
}

func TestSPECLikeMeansProperties(t *testing.T) {
	means := SPECLikeMeans()
	if len(means) != SPECNumTypes {
		t.Fatalf("rows = %d, want %d", len(means), SPECNumTypes)
	}
	for ti, row := range means {
		if len(row) != SPECNumMachines {
			t.Fatalf("row %d has %d machines, want %d", ti, len(row), SPECNumMachines)
		}
		for mi, v := range row {
			if v < 50 || v > 200 {
				t.Errorf("mean (%d,%d) = %v outside the paper's [50,200] range", ti, mi, v)
			}
		}
	}
	// Determinism: two calls must agree exactly.
	again := SPECLikeMeans()
	for ti := range means {
		for mi := range means[ti] {
			if means[ti][mi] != again[ti][mi] {
				t.Fatal("SPECLikeMeans is not deterministic")
			}
		}
	}
}

// TestSPECLikeMeansInconsistent verifies inconsistent heterogeneity: no
// machine dominates all task types (the defining property of the paper's
// system model).
func TestSPECLikeMeansInconsistent(t *testing.T) {
	means := SPECLikeMeans()
	winners := map[int]bool{}
	for _, row := range means {
		best, bestV := 0, row[0]
		for mi, v := range row {
			if v < bestV {
				best, bestV = mi, v
			}
		}
		winners[best] = true
	}
	if len(winners) < 2 {
		t.Errorf("a single machine wins every task type (consistent heterogeneity); winners = %v", winners)
	}
}

func TestVideoMeansShape(t *testing.T) {
	// Columns are the paper's EC2 VM types.
	const (
		cpuOptimized = iota
		memOptimized
		generalPurpose
		gpu
	)
	means := VideoMeans()
	if len(means) != 4 || len(means[0]) != 4 {
		t.Fatalf("video matrix is %dx%d, want 4x4", len(means), len(means[0]))
	}
	// GPU-friendly types must be fastest on the GPU column; the
	// memory-bound type must not be.
	if !(means[0][gpu] < means[0][cpuOptimized]) {
		t.Error("resolution transcode should prefer the GPU VM")
	}
	if !(means[1][gpu] < means[1][generalPurpose]) {
		t.Error("codec transcode should prefer the GPU VM")
	}
	if !(means[2][memOptimized] < means[2][gpu]) {
		t.Error("bitrate transcode should prefer the memory-optimized VM")
	}
}
