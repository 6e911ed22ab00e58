package workload

import (
	"testing"

	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// drain pulls every task out of a bounded source.
func drain(t *testing.T, src Source) []*task.Task {
	t.Helper()
	var out []*task.Task
	for {
		tk, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, tk)
	}
}

// sameWorkload asserts two task lists are identical in every field the
// simulator reads.
func sameWorkload(t *testing.T, a, b []*task.Task) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Type != b[i].Type || a[i].Arrival != b[i].Arrival || a[i].Deadline != b[i].Deadline {
			t.Fatalf("task %d differs: %v vs %v", i, a[i], b[i])
		}
		for mi := range a[i].TrueExec {
			if a[i].TrueExec[mi] != b[i].TrueExec[mi] {
				t.Fatalf("task %d true exec differs on machine %d", i, mi)
			}
		}
	}
}

// TestReplaySourceMatchesGenerate: pulling the replay-mode source task by
// task yields exactly the slice Generate returns at the same seed — the
// pull path and the materialized path are the same workload.
func TestReplaySourceMatchesGenerate(t *testing.T) {
	matrix := testPET(t)
	cfg := baseConfig()
	want := MustGenerate(cfg, matrix, stats.NewRNG(11))
	src, err := NewSource(cfg, matrix, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	sameWorkload(t, want, drain(t, src))
}

// TestBurstTypeMixRegression pins the corrected type distribution under a
// strong (×8) arrival burst. The historical generate-all-then-sort code
// pre-drew only NumTasks/nTypes+2 arrivals per type and cut the merged
// stream at NumTasks, silently capping any type at 202 of 400 here and
// backfilling with the other type's later arrivals. The streaming merge has
// no cut: the earliest 400 arrivals carry their true (skewed) type mix —
// for this seed, 206 of one type, which the old margin could not represent.
func TestBurstTypeMixRegression(t *testing.T) {
	matrix := burstPET(t)
	cfg := Config{
		NumTasks: 400, Rate: 0.05, VarFrac: 1.0, Beta: 2.0,
		Bursts: []Burst{{Start: 200, End: 1500, Factor: 8}},
	}
	tasks, err := Generate(cfg, matrix, stats.NewRNG(94))
	if err != nil {
		t.Fatal(err)
	}
	counts := countByType(tasks, matrix.NumTypes())
	oldCap := cfg.NumTasks/matrix.NumTypes() + 2
	if want := []int{206, 194}; counts[0] != want[0] || counts[1] != want[1] {
		t.Fatalf("type mix under ×8 burst = %v, want %v (corrected, cut-free distribution)", counts, want)
	}
	if counts[0] <= oldCap {
		t.Fatalf("regression seed no longer exceeds the old per-type margin (%d <= %d): pick a new seed", counts[0], oldCap)
	}
	if counts[0]+counts[1] != cfg.NumTasks {
		t.Fatalf("counts %v do not sum to %d", counts, cfg.NumTasks)
	}
}

// TestPureStreamBasics: the constant-memory source emits sequential IDs,
// non-decreasing arrivals, the paper's deadline rule, full TrueExec rows,
// and exactly NumTasks tasks.
func TestPureStreamBasics(t *testing.T) {
	matrix := testPET(t)
	cfg := baseConfig()
	src, err := NewStream(cfg, matrix, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	tasks := drain(t, src)
	if len(tasks) != cfg.NumTasks {
		t.Fatalf("pure stream emitted %d tasks, want %d", len(tasks), cfg.NumTasks)
	}
	avgAll := matrix.GrandMean()
	for i, tk := range tasks {
		if tk.ID != i {
			t.Errorf("task %d has ID %d", i, tk.ID)
		}
		if i > 0 && tk.Arrival < tasks[i-1].Arrival {
			t.Errorf("arrivals not sorted at %d", i)
		}
		want := tk.Arrival + int64(matrix.TypeMeanAcrossMachines(tk.Type)+cfg.Beta*avgAll+0.5)
		if tk.Deadline != want {
			t.Errorf("task %d deadline %d, want %d", i, tk.Deadline, want)
		}
		if len(tk.TrueExec) != matrix.NumMachines() {
			t.Errorf("task %d TrueExec size %d", i, len(tk.TrueExec))
		}
	}
}

// TestPureStreamDeterminism: same seed, same stream; different seed,
// different stream.
func TestPureStreamDeterminism(t *testing.T) {
	matrix := testPET(t)
	cfg := baseConfig()
	mk := func(seed int64) []*task.Task {
		src, err := NewStream(cfg, matrix, stats.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return drain(t, src)
	}
	sameWorkload(t, mk(5), mk(5))
	a, c := mk(5), mk(6)
	diff := false
	for i := range a {
		if a[i].Arrival != c[i].Arrival {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical pure streams")
	}
}

// TestPureStreamUnbounded: NumTasks 0 streams past any materializable
// bound; spot-check a 50k prefix stays well-formed and roughly on rate.
func TestPureStreamUnbounded(t *testing.T) {
	matrix := testPET(t)
	cfg := baseConfig()
	cfg.NumTasks = 0
	src, err := NewStream(cfg, matrix, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000
	var last int64
	for i := 0; i < n; i++ {
		tk, ok := src.Next()
		if !ok {
			t.Fatalf("unbounded stream ended at task %d", i)
		}
		if tk.Arrival < last {
			t.Fatalf("arrival went backwards at task %d", i)
		}
		last = tk.Arrival
		src.Recycle(tk)
	}
	if src.emitted != n {
		t.Fatalf("emitted = %d, want %d", src.emitted, n)
	}
	rate := float64(n) / float64(last)
	if rate < 0.75*cfg.Rate || rate > 1.25*cfg.Rate {
		t.Errorf("empirical rate %v, want ≈ %v", rate, cfg.Rate)
	}
}

// TestArrivalPathAllocs: the steady-state arrival path — Next plus Recycle
// — must allocate only from the task pool, i.e. amortize to zero heap
// allocations once the pool is warm.
func TestArrivalPathAllocs(t *testing.T) {
	matrix := testPET(t)
	cfg := baseConfig()
	cfg.NumTasks = 0
	src, err := NewStream(cfg, matrix, stats.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ { // warm the pool and the RNG paths
		tk, _ := src.Next()
		src.Recycle(tk)
	}
	avg := testing.AllocsPerRun(2000, func() {
		tk, _ := src.Next()
		src.Recycle(tk)
	})
	if avg >= 1 {
		t.Fatalf("steady-state arrival path allocates %.2f objects/op, want pool-only (≈0)", avg)
	}
}

// TestStepRateEquivalentToBursts: declaring windows via RateFn=StepRate
// must reproduce the Bursts path draw for draw.
func TestStepRateEquivalentToBursts(t *testing.T) {
	matrix := burstPET(t)
	base := Config{NumTasks: 300, Rate: 0.05, VarFrac: 0.10, Beta: 2.0}
	viaBursts := base
	viaBursts.Bursts = []Burst{{Start: 1000, End: 3000, Factor: 4}}
	viaFn := base
	viaFn.RateFn = StepRate(Burst{Start: 1000, End: 3000, Factor: 4})
	a := MustGenerate(viaBursts, matrix, stats.NewRNG(9))
	b := MustGenerate(viaFn, matrix, stats.NewRNG(9))
	sameWorkload(t, a, b)
}

// TestRampRate checks the ramp's anchor points and interpolation.
func TestRampRate(t *testing.T) {
	r := RampRate(100, 200, 1, 3)
	cases := map[float64]float64{0: 1, 100: 1, 150: 2, 200: 3, 999: 3}
	for clock, want := range cases {
		if got := r(clock); got != want {
			t.Errorf("RampRate(%v) = %v, want %v", clock, got, want)
		}
	}
}

// TestDiurnalRate checks the cycle's shape and its constructor validation.
func TestDiurnalRate(t *testing.T) {
	d := DiurnalRate(1000, 0.5)
	if got := d(0); got != 1 {
		t.Errorf("diurnal at clock 0 = %v, want 1", got)
	}
	if got := d(250); got < 1.49 || got > 1.51 { // peak of the sine
		t.Errorf("diurnal peak = %v, want ≈ 1.5", got)
	}
	if got := d(750); got < 0.49 || got > 0.51 { // trough
		t.Errorf("diurnal trough = %v, want ≈ 0.5", got)
	}
	for _, bad := range []func(){
		func() { DiurnalRate(0, 0.5) },
		func() { DiurnalRate(100, 1) },
		func() { DiurnalRate(100, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid DiurnalRate parameters accepted")
				}
			}()
			bad()
		}()
	}
}

// TestRateFnComposesWithBursts: a custom rate function multiplies with the
// scenario's burst windows rather than replacing them — arrivals in the
// overlap compress by both factors.
func TestRateFnComposesWithBursts(t *testing.T) {
	cfg := Config{NumTasks: 300, Rate: 0.05, VarFrac: 0.10, Beta: 2.0,
		Bursts: []Burst{{Start: 0, End: 1 << 40, Factor: 2}},
		RateFn: StepRate(Burst{Start: 0, End: 1 << 40, Factor: 3}),
	}
	eff := cfg.effectiveRate()
	if got := eff(5); got != 6 {
		t.Fatalf("composed rate = %v, want 6 (2×3)", got)
	}
}

// TestBadRateFnPanics: a rate function returning a non-positive factor
// must fail loudly instead of corrupting the arrival clock.
func TestBadRateFnPanics(t *testing.T) {
	matrix := burstPET(t)
	cfg := Config{NumTasks: 10, Rate: 0.05, VarFrac: 0.10, Beta: 2.0,
		RateFn: func(float64) float64 { return 0 }}
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate factor did not panic")
		}
	}()
	src, err := NewStream(cfg, matrix, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	src.Next()
}

// TestFromTasksOrder: the slice adapter yields arrival order with ties in
// slice order (the order the event queue used to pop simultaneous
// arrivals) and leaves the caller's slice untouched.
func TestFromTasksOrder(t *testing.T) {
	a := task.New(0, 0, 50, 100)
	b := task.New(1, 1, 10, 100)
	c := task.New(2, 0, 50, 100) // ties with a: slice order, a first
	src := FromTasks([]*task.Task{a, b, c})
	want := []*task.Task{b, a, c}
	for i, w := range want {
		got, ok := src.Next()
		if !ok || got != w {
			t.Fatalf("position %d: got %v, want %v", i, got, w)
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("adapter yielded past its end")
	}
}

// TestNewStreamRejectsBadConfig mirrors Generate's validation (negative
// NumTasks stays invalid even though 0 becomes "unbounded").
func TestNewStreamRejectsBadConfig(t *testing.T) {
	matrix := burstPET(t)
	if _, err := NewStream(Config{NumTasks: -1, Rate: 1, VarFrac: 0.1}, matrix, stats.NewRNG(1)); err == nil {
		t.Error("negative NumTasks accepted")
	}
	if _, err := NewStream(Config{NumTasks: 0, Rate: 0, VarFrac: 0.1}, matrix, stats.NewRNG(1)); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewSource(Config{NumTasks: 0, Rate: 1, VarFrac: 0.1}, matrix, stats.NewRNG(1)); err == nil {
		t.Error("replay source accepted an unbounded config")
	}
}
