package workload

import (
	"testing"

	"taskprune/internal/pet"
	"taskprune/internal/stats"
)

func burstPET(t *testing.T) *pet.Matrix {
	t.Helper()
	cfg := pet.BuildConfig{Samples: 300, Bins: 16, MaxImpulses: 16, ShapeLo: 8, ShapeHi: 12}
	m, err := pet.Build([][]float64{{10, 40}, {40, 10}}, cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func countIn(tasks []int64, lo, hi int64) int {
	n := 0
	for _, a := range tasks {
		if a >= lo && a < hi {
			n++
		}
	}
	return n
}

// TestBurstWindowConcentratesArrivals: a surge window must hold visibly
// more arrivals than the same window without the burst.
func TestBurstWindowConcentratesArrivals(t *testing.T) {
	matrix := burstPET(t)
	base := Config{NumTasks: 400, Rate: 0.05, VarFrac: 0.10, Beta: 2.0}
	gen := func(cfg Config) []int64 {
		tasks, err := Generate(cfg, matrix, stats.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		arr := make([]int64, len(tasks))
		for i, tk := range tasks {
			arr[i] = tk.Arrival
		}
		return arr
	}
	plain := gen(base)
	burst := base
	burst.Bursts = []Burst{{Start: 1000, End: 3000, Factor: 4}}
	surged := gen(burst)
	pn, sn := countIn(plain, 1000, 3000), countIn(surged, 1000, 3000)
	if sn <= pn {
		t.Errorf("burst window holds %d arrivals, plain %d — surge had no effect", sn, pn)
	}
	// Determinism: same seed and config, same workload.
	again := gen(burst)
	for i := range surged {
		if surged[i] != again[i] {
			t.Fatalf("burst workload not deterministic at task %d", i)
		}
	}
}

func TestBurstValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.Bursts = []Burst{{Start: 600, End: 300, Factor: 2}}
	if err := cfg.Validate(); err == nil {
		t.Error("inverted burst window accepted")
	}
	cfg.Bursts = []Burst{{Start: 0, End: 100, Factor: 0}}
	if err := cfg.Validate(); err == nil {
		t.Error("zero burst factor accepted")
	}
	nan := 0.0
	nan /= nan
	cfg.Bursts = []Burst{{Start: 0, End: 100, Factor: nan}}
	if err := cfg.Validate(); err == nil {
		t.Error("NaN burst factor accepted")
	}
	zero := 0.0
	cfg.Bursts = []Burst{{Start: 0, End: 100, Factor: 1 / zero}}
	if err := cfg.Validate(); err == nil {
		t.Error("Inf burst factor accepted (it would freeze the arrival clock)")
	}
}
