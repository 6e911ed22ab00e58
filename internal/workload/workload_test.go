package workload

import (
	"math"
	"sort"
	"testing"

	"taskprune/internal/pet"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

func testPET(t *testing.T) *pet.Matrix {
	t.Helper()
	cfg := pet.DefaultBuildConfig()
	cfg.Samples = 150
	m, err := pet.Build(pet.SPECLikeMeans(), cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func baseConfig() Config {
	return Config{NumTasks: 400, Rate: RateForLevel(Level34k), VarFrac: 0.10, Beta: 2.0}
}

// countByType tallies how many tasks of each type a workload contains.
func countByType(tasks []*task.Task, nTypes int) []int {
	counts := make([]int, nTypes)
	for _, t := range tasks {
		counts[t.Type]++
	}
	return counts
}

func TestValidate(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{NumTasks: 0, Rate: 1, VarFrac: 0.1, Beta: 1},
		{NumTasks: 10, Rate: 0, VarFrac: 0.1, Beta: 1},
		{NumTasks: 10, Rate: 1, VarFrac: -0.1, Beta: 1},
		{NumTasks: 10, Rate: 1, VarFrac: 0.1, Beta: -2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	matrix := testPET(t)
	tasks, err := Generate(baseConfig(), matrix, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 400 {
		t.Fatalf("generated %d tasks, want 400", len(tasks))
	}
	for i, tk := range tasks {
		if tk.ID != i {
			t.Errorf("task %d has ID %d (IDs must follow arrival order)", i, tk.ID)
		}
		if i > 0 && tk.Arrival < tasks[i-1].Arrival {
			t.Errorf("arrivals not sorted at %d", i)
		}
		if tk.Deadline <= tk.Arrival {
			t.Errorf("task %d deadline %d <= arrival %d", i, tk.Deadline, tk.Arrival)
		}
		if len(tk.TrueExec) != matrix.NumMachines() {
			t.Errorf("task %d TrueExec size %d", i, len(tk.TrueExec))
		}
		for mi, e := range tk.TrueExec {
			if e < 1 {
				t.Errorf("task %d machine %d true exec %d < 1", i, mi, e)
			}
		}
		if int(tk.Type) < 0 || int(tk.Type) >= matrix.NumTypes() {
			t.Errorf("task %d type %d out of range", i, tk.Type)
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	matrix := testPET(t)
	a, _ := Generate(baseConfig(), matrix, stats.NewRNG(9))
	b, _ := Generate(baseConfig(), matrix, stats.NewRNG(9))
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Type != b[i].Type || a[i].Deadline != b[i].Deadline {
			t.Fatalf("same-seed workloads differ at %d", i)
		}
		for mi := range a[i].TrueExec {
			if a[i].TrueExec[mi] != b[i].TrueExec[mi] {
				t.Fatalf("same-seed true exec differs at %d/%d", i, mi)
			}
		}
	}
	c, _ := Generate(baseConfig(), matrix, stats.NewRNG(10))
	diff := false
	for i := range a {
		if a[i].Arrival != c[i].Arrival {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateAggregateRate(t *testing.T) {
	matrix := testPET(t)
	cfg := baseConfig()
	cfg.NumTasks = 2000
	tasks, err := Generate(cfg, matrix, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	span := tasks[len(tasks)-1].Arrival - tasks[0].Arrival
	gotRate := float64(len(tasks)) / float64(span)
	if math.Abs(gotRate-cfg.Rate) > 0.25*cfg.Rate {
		t.Errorf("empirical rate %v, want ≈ %v", gotRate, cfg.Rate)
	}
}

func TestGenerateDeadlineRule(t *testing.T) {
	matrix := testPET(t)
	cfg := baseConfig()
	avgAll := matrix.GrandMean()
	tasks, err := Generate(cfg, matrix, stats.NewRNG(33))
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range tasks[:50] {
		avgType := matrix.TypeMeanAcrossMachines(tk.Type)
		want := tk.Arrival + int64(avgType+cfg.Beta*avgAll+0.5)
		if tk.Deadline != want {
			t.Fatalf("task %d deadline %d, want %d (δ = arr + avg_i + β·avg_all)", tk.ID, tk.Deadline, want)
		}
	}
}

func TestGenerateTypeBalance(t *testing.T) {
	matrix := testPET(t)
	cfg := baseConfig()
	cfg.NumTasks = 1200
	tasks, _ := Generate(cfg, matrix, stats.NewRNG(41))
	counts := countByType(tasks, matrix.NumTypes())
	expected := float64(cfg.NumTasks) / float64(matrix.NumTypes())
	for ti, c := range counts {
		if math.Abs(float64(c)-expected) > 0.5*expected {
			t.Errorf("type %d count %d, want ≈ %v (balanced per-type streams)", ti, c, expected)
		}
	}
}

func TestRateForLevelCalibration(t *testing.T) {
	// The documented calibration: 19k ≈ 1.7× and 34k ≈ 3.0× the SPEC
	// system's ≈0.064 tasks/tick service capacity.
	capacity := 8.0 / 125.0
	if ratio := RateForLevel(Level19k) / capacity; ratio < 1.3 || ratio > 2.1 {
		t.Errorf("19k load ratio = %v, want ≈ 1.7", ratio)
	}
	if ratio := RateForLevel(Level34k) / capacity; ratio < 2.5 || ratio > 3.5 {
		t.Errorf("34k load ratio = %v, want ≈ 3.0", ratio)
	}
	if RateForLevel(Level10k) >= RateForLevel(Level17k5) {
		t.Error("rates must increase with level")
	}
}

func TestLevelLabel(t *testing.T) {
	cases := map[float64]string{
		Level10k:  "10k",
		Level12k5: "12.5k",
		Level15k:  "15k",
		Level17k5: "17.5k",
		Level19k:  "19k",
		Level34k:  "34k",
	}
	for level, want := range cases {
		if got := LevelLabel(level); got != want {
			t.Errorf("LevelLabel(%v) = %q, want %q", level, got, want)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	matrix := testPET(t)
	if _, err := Generate(Config{}, matrix, stats.NewRNG(1)); err == nil {
		t.Error("Generate accepted zero config")
	}
}

func TestArrivalSpread(t *testing.T) {
	// With 10% variance, inter-arrival gaps should cluster tightly around
	// the per-type mean; sanity-check the merged stream is not bursty in a
	// pathological way (no half of all tasks in one tick).
	matrix := testPET(t)
	tasks, _ := Generate(baseConfig(), matrix, stats.NewRNG(55))
	byTick := map[int64]int{}
	for _, tk := range tasks {
		byTick[tk.Arrival]++
	}
	var ticks []int64
	for tk := range byTick {
		ticks = append(ticks, tk)
	}
	sort.Slice(ticks, func(i, j int) bool { return ticks[i] < ticks[j] })
	for _, tk := range ticks {
		if byTick[tk] > len(tasks)/4 {
			t.Fatalf("pathological burst: %d tasks at tick %d", byTick[tk], tk)
		}
	}
}
