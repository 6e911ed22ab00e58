package cluster

import (
	"strings"
	"testing"

	"taskprune/internal/pet"
	"taskprune/internal/scenario"
	"taskprune/internal/simulator"
	"taskprune/internal/stats"
	"taskprune/internal/task"
	"taskprune/internal/trace"
	"taskprune/internal/workload"
)

// Dispatches returns the routing log (empty unless Config.RecordDispatch).
func (e *Engine) Dispatches() []Dispatch { return e.dispatches }

// clusterPET builds the 3×6 test matrix shared by the cluster tests: six
// machines so three datacenters get two each, with per-type affinities so
// routing decisions actually matter.
func clusterPET(t testing.TB) *pet.Matrix {
	t.Helper()
	cfg := pet.BuildConfig{Samples: 400, Bins: 16, MaxImpulses: 16, ShapeLo: 8, ShapeHi: 12}
	means := [][]float64{
		{10, 40, 20, 15, 30, 25},
		{40, 10, 30, 25, 15, 20},
		{20, 30, 10, 35, 25, 15},
	}
	m, err := pet.Build(means, cfg, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func clusterWorkload(t testing.TB, matrix *pet.Matrix, n int, seed int64) []*task.Task {
	t.Helper()
	tasks, err := workload.Generate(workload.Config{NumTasks: n, Rate: 0.5, VarFrac: 0.10, Beta: 2.0}, matrix, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

func clusterConfig(t testing.TB, name string, matrix *pet.Matrix, dcs int, policy Policy, sc *scenario.Scenario) Config {
	t.Helper()
	simCfg, err := simulator.ConfigFor(name, matrix)
	if err != nil {
		t.Fatal(err)
	}
	simCfg.Scenario = sc
	return Config{DCs: dcs, Policy: policy, Sim: simCfg}
}

func TestNewValidation(t *testing.T) {
	matrix := clusterPET(t)
	base := clusterConfig(t, "PAM", matrix, 3, nil, nil)

	bad := base
	bad.DCs = 0
	if _, err := New(bad); err == nil {
		t.Error("zero datacenters accepted")
	}
	bad = base
	bad.DCs = 7
	if _, err := New(bad); err == nil {
		t.Error("more datacenters than machines accepted")
	}
	bad = base
	bad.Sim.Machines = []int{0, 1}
	if _, err := New(bad); err == nil {
		t.Error("pre-partitioned template accepted")
	}
	bad = base
	bad.Traces = []*trace.Recorder{trace.NewRecorder()}
	if _, err := New(bad); err == nil {
		t.Error("trace recorder count mismatch accepted")
	}
	bad = base
	bad.Sim.Trace = trace.NewRecorder()
	if _, err := New(bad); err == nil {
		t.Error("template-level trace recorder accepted")
	}
	bad = base
	bad.Sim.Scenario = scenario.New("bad").DCFailAt(10, 5, scenario.Requeue)
	if _, err := New(bad); err == nil {
		t.Error("dc-fail with out-of-range datacenter accepted")
	}
	for _, route := range []string{"pet-aware", "least-queued"} {
		policy, err := NewPolicy(route)
		if err != nil {
			t.Fatal(err)
		}
		bad = base
		bad.Policy = policy
		bad.Parallel = true
		if _, err := New(bad); err == nil {
			t.Errorf("parallel stepping with %s routing accepted", route)
		}
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	par := base
	par.Parallel = true
	if _, err := New(par); err != nil {
		t.Fatalf("parallel round-robin config rejected: %v", err)
	}
}

// sliceSource emits its tasks in slice order, unsorted — unlike
// workload.FromTasks, which sorts by arrival and so cannot produce a
// backwards stream.
type sliceSource []*task.Task

func (s *sliceSource) Next() (*task.Task, bool) {
	if len(*s) == 0 {
		return nil, false
	}
	t := (*s)[0]
	*s = (*s)[1:]
	return t, true
}

// TestBackwardsArrivalRejected: a source whose arrivals go backwards (10,
// then 5) is an error naming the late task on every driver — the
// single-fleet simulator (caught by Admit), the sequential cluster path
// (caught by submit), and the round-robin wide-window driver (caught by
// pull).
func TestBackwardsArrivalRejected(t *testing.T) {
	matrix := clusterPET(t)
	backwards := func() workload.Source {
		tasks := clusterWorkload(t, matrix, 2, 1)
		tasks[0].ID, tasks[0].Arrival = 41, 10
		tasks[1].ID, tasks[1].Arrival = 42, 5
		src := sliceSource(tasks)
		return &src
	}
	check := func(driver string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "task 42 ") {
			t.Errorf("%s: backwards arrival not rejected by name: %v", driver, err)
		}
	}

	sim, err := simulator.New(simulator.MustConfigFor("PAM", matrix))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.RunSource(backwards())
	check("simulator", err)

	for _, c := range []struct {
		driver   string
		parallel bool
	}{{"sequential cluster", false}, {"wide-window cluster", true}} {
		cfg := clusterConfig(t, "PAM", matrix, 3, nil, nil)
		cfg.Parallel = c.parallel
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = eng.RunSource(backwards())
		check(c.driver, err)
	}
}

func TestPartitionCoversFleet(t *testing.T) {
	matrix := clusterPET(t)
	for _, dcs := range []int{1, 2, 3, 4, 6} {
		eng, err := New(clusterConfig(t, "MM", matrix, dcs, nil, nil))
		if err != nil {
			t.Fatalf("%d DCs: %v", dcs, err)
		}
		seen := make(map[int]bool)
		for _, d := range eng.DCList() {
			if len(d.Machines()) == 0 {
				t.Fatalf("%d DCs: datacenter %d owns no machines", dcs, d.Index())
			}
			for _, mi := range d.Machines() {
				if seen[mi] {
					t.Fatalf("%d DCs: machine %d owned twice", dcs, mi)
				}
				seen[mi] = true
			}
		}
		if len(seen) != matrix.NumMachines() {
			t.Fatalf("%d DCs: partition covers %d of %d machines", dcs, len(seen), matrix.NumMachines())
		}
	}
}

// primePET builds a 3×7 matrix: a prime machine count, so no DC count in
// 2..6 divides the fleet and every partition exercises the remainder path.
func primePET(t testing.TB) *pet.Matrix {
	t.Helper()
	cfg := pet.BuildConfig{Samples: 400, Bins: 16, MaxImpulses: 16, ShapeLo: 8, ShapeHi: 12}
	means := [][]float64{
		{10, 40, 20, 15, 30, 25, 12},
		{40, 10, 30, 25, 15, 20, 35},
		{20, 30, 10, 35, 25, 15, 18},
	}
	m, err := pet.Build(means, cfg, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPartitionPrimeFleet pins the contiguous-partition contract on a
// 7-machine fleet, where no DC count >1 divides the machine count: blocks
// are contiguous and adjacent, cover the fleet exactly once, differ in
// size by at most one with exactly nm mod nDCs larger blocks, match
// blockBounds exactly, and dcOfMachine agrees with the ownership New
// actually built.
func TestPartitionPrimeFleet(t *testing.T) {
	matrix := primePET(t)
	nm := matrix.NumMachines()
	for dcs := 1; dcs <= nm; dcs++ {
		eng, err := New(clusterConfig(t, "MM", matrix, dcs, nil, nil))
		if err != nil {
			t.Fatalf("%d DCs: %v", dcs, err)
		}
		next := 0 // contiguity cursor: each block starts where the last ended
		larger := 0
		for _, d := range eng.DCList() {
			cols := d.Machines()
			if len(cols) == 0 {
				t.Fatalf("%d DCs: datacenter %d owns no machines", dcs, d.Index())
			}
			lo, hi := blockBounds(d.Index(), nm, dcs)
			if cols[0] != lo || len(cols) != hi-lo {
				t.Fatalf("%d DCs: datacenter %d owns [%d..%d], blockBounds says [%d..%d)", dcs, d.Index(), cols[0], cols[len(cols)-1], lo, hi)
			}
			for _, mi := range cols {
				if mi != next {
					t.Fatalf("%d DCs: datacenter %d owns machine %d, want contiguous %d", dcs, d.Index(), mi, next)
				}
				if got := dcOfMachine(mi, nm, dcs); got != d.Index() {
					t.Fatalf("%d DCs: dcOfMachine(%d) = %d, but datacenter %d owns it", dcs, mi, got, d.Index())
				}
				next++
			}
			switch len(cols) {
			case nm / dcs:
			case nm/dcs + 1:
				larger++
			default:
				t.Fatalf("%d DCs: datacenter %d owns %d machines; blocks must hold %d or %d", dcs, d.Index(), len(cols), nm/dcs, nm/dcs+1)
			}
		}
		if next != nm {
			t.Fatalf("%d DCs: partition covers %d of %d machines", dcs, next, nm)
		}
		if larger != nm%dcs {
			t.Fatalf("%d DCs: %d oversized blocks, want nm mod dcs = %d", dcs, larger, nm%dcs)
		}
	}
}

// TestPartitionErrorReportsSplit pins the over-partitioned error message:
// it must report how many datacenters end up empty and the split that
// produced them, so the failure is actionable without reading the code.
func TestPartitionErrorReportsSplit(t *testing.T) {
	matrix := primePET(t)
	cfg := clusterConfig(t, "MM", matrix, 9, nil, nil)
	_, err := New(cfg)
	if err == nil {
		t.Fatal("9 datacenters for 7 machines accepted")
	}
	for _, want := range []string{"leaves 2 empty", "0+1+1+1+0+1+1+1+1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestPETAwareUnevenBlocks runs the PET-aware dispatcher over the 2+2+3
// split of the prime fleet: scoring walks each DC's actual machine list,
// so the uneven last block must both receive traffic and leave the trial
// accounting exact.
func TestPETAwareUnevenBlocks(t *testing.T) {
	matrix := primePET(t)
	cfg := clusterConfig(t, "PAM", matrix, 3, NewPolicyOrDie(t, "pet-aware"), nil)
	cfg.RecordDispatch = true
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(eng.DCList()[2].Machines()); got != 3 {
		t.Fatalf("last datacenter owns %d machines, want the 3-machine remainder block", got)
	}
	tasks := clusterWorkload(t, matrix, 300, 5)
	st, _, err := eng.RunSource(workload.FromTasks(tasks))
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 300 {
		t.Fatalf("trial accounted %d of 300 tasks", st.Total)
	}
	routed := make(map[int]int)
	for _, d := range eng.Dispatches() {
		routed[d.DC]++
	}
	for dc := 0; dc < 3; dc++ {
		if routed[dc] == 0 {
			t.Errorf("pet-aware routed nothing to datacenter %d (split 2+2+3); routing map: %v", dc, routed)
		}
	}
}

func NewPolicyOrDie(t testing.TB, name string) Policy {
	t.Helper()
	p, err := NewPolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRoundRobinSkipsDeadDCs(t *testing.T) {
	dcs := []*DC{{index: 0, alive: true, healthy: true}, {index: 1, alive: false}, {index: 2, alive: true, healthy: true}}
	p := &RoundRobin{}
	want := []int{0, 2, 0, 2}
	for i, w := range want {
		if got := p.Pick(0, nil, dcs); got != w {
			t.Fatalf("pick %d: got dc%d, want dc%d", i, got, w)
		}
	}
}

func TestPoliciesSpreadLoad(t *testing.T) {
	matrix := clusterPET(t)
	tasks := clusterWorkload(t, matrix, 200, 3)
	for _, route := range []string{"round-robin", "least-queued", "pet-aware"} {
		policy, err := NewPolicy(route)
		if err != nil {
			t.Fatal(err)
		}
		cfg := clusterConfig(t, "PAM", matrix, 3, policy, nil)
		cfg.RecordDispatch = true
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, perDC, err := eng.RunSource(workload.FromTasks(tasks))
		if err != nil {
			t.Fatal(err)
		}
		if st.Total != len(tasks) {
			t.Fatalf("%s: cluster accounted %d of %d tasks", route, st.Total, len(tasks))
		}
		counts := make([]int, 3)
		for _, d := range eng.Dispatches() {
			counts[d.DC]++
		}
		sum := 0
		for d, c := range counts {
			if c == 0 {
				t.Errorf("%s: datacenter %d received no tasks", route, d)
			}
			sum += c
		}
		if sum != len(tasks) {
			t.Fatalf("%s: dispatch log has %d entries for %d tasks", route, sum, len(tasks))
		}
		acc := 0
		for _, s := range perDC {
			acc += s.Total
		}
		if acc != len(tasks) {
			t.Fatalf("%s: per-DC totals sum to %d of %d", route, acc, len(tasks))
		}
	}
}

func TestNewPolicyUnknown(t *testing.T) {
	if _, err := NewPolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, name := range []string{"rr", "round-robin", "lq", "least-queued", "pet", "pet-aware"} {
		if _, err := NewPolicy(name); err != nil {
			t.Errorf("policy %q rejected: %v", name, err)
		}
	}
}

// outageScenario fails DC 0 mid-trial and recovers it later (trials span
// roughly 400 ticks at the tests' 0.5 tasks/tick rate).
func outageScenario(policy scenario.Policy) *scenario.Scenario {
	return scenario.New("outage").
		DCFailAt(100, 0, policy).
		DCRecoverAt(250, 0)
}

func TestDCFailRequeueFailsOver(t *testing.T) {
	matrix := clusterPET(t)
	tasks := clusterWorkload(t, matrix, 200, 5)
	cfg := clusterConfig(t, "PAM", matrix, 3, nil, outageScenario(scenario.Requeue))
	cfg.RecordDispatch = true
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := eng.RunSource(workload.FromTasks(tasks))
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != len(tasks) {
		t.Fatalf("cluster accounted %d of %d tasks (failover lost tasks)", st.Total, len(tasks))
	}
	failovers, toDeadDuringOutage, dc0After := 0, 0, 0
	for _, d := range eng.Dispatches() {
		if d.Failover {
			failovers++
			if d.DC == 0 {
				t.Fatalf("failover routed a task back to the dead datacenter: %+v", d)
			}
		}
		if !d.Failover && d.DC == 0 && d.Tick >= 100 && d.Tick < 250 {
			toDeadDuringOutage++
		}
		if d.DC == 0 && d.Tick >= 250 {
			dc0After++
		}
	}
	if failovers == 0 {
		t.Fatal("dc-fail with requeue produced no failover dispatches")
	}
	if toDeadDuringOutage != 0 {
		t.Fatalf("%d arrivals routed to the dead datacenter during its outage", toDeadDuringOutage)
	}
	if dc0After == 0 {
		t.Fatal("recovered datacenter never received tasks again")
	}
	if eng.Gate().Dropped != 0 {
		t.Fatalf("gate dropped %d tasks with survivors available", eng.Gate().Dropped)
	}
}

func TestDCFailDropExitsHeldTasks(t *testing.T) {
	matrix := clusterPET(t)
	tasks := clusterWorkload(t, matrix, 200, 5)
	cfg := clusterConfig(t, "PAM", matrix, 3, nil, outageScenario(scenario.Drop))
	cfg.RecordDispatch = true
	rec := trace.NewRecorder()
	cfg.Traces = []*trace.Recorder{rec, nil, nil}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, perDC, err := eng.RunSource(workload.FromTasks(tasks))
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != len(tasks) {
		t.Fatalf("cluster accounted %d of %d tasks", st.Total, len(tasks))
	}
	for _, d := range eng.Dispatches() {
		if d.Failover {
			t.Fatalf("drop policy produced a failover dispatch: %+v", d)
		}
	}
	// The dead datacenter's trace must show the outage exiting its held
	// tasks as drops at the dc-fail tick (per-DC TrialStats counters are
	// steady-state trimmed, so the trace is the exact record).
	droppedAtFail, failed := 0, 0
	for _, ev := range rec.Events() {
		switch {
		case ev.Kind == trace.MachineFailed && ev.Tick == 100:
			failed++
		case ev.Kind == trace.TaskDropped && ev.Tick == 100:
			droppedAtFail++
		}
	}
	if failed != len(eng.DCList()[0].Machines()) {
		t.Fatalf("dc-fail took down %d of %d machines", failed, len(eng.DCList()[0].Machines()))
	}
	if droppedAtFail == 0 {
		t.Fatal("dc-fail with drop policy exited no tasks in the failed datacenter")
	}
	acc := 0
	for _, s := range perDC {
		acc += s.Total
	}
	if acc != len(tasks) {
		t.Fatalf("per-DC totals sum to %d of %d", acc, len(tasks))
	}
}

func TestAllDCsDownDropsAtGate(t *testing.T) {
	matrix := clusterPET(t)
	tasks := clusterWorkload(t, matrix, 150, 9)
	sc := scenario.New("blackout").
		DCFailAt(100, 0, scenario.Requeue).
		DCFailAt(100, 1, scenario.Requeue)
	eng, err := New(clusterConfig(t, "MM", matrix, 2, nil, sc))
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := eng.RunSource(workload.FromTasks(tasks))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Gate().Dropped == 0 {
		t.Fatal("total blackout dropped nothing at the gate")
	}
	if st.Total != len(tasks) {
		t.Fatalf("cluster accounted %d of %d tasks", st.Total, len(tasks))
	}
}

// TestClusterDeterminism3DC replays a 3-DC trial with a mid-trial dc-fail
// twice and demands byte-identical decision traces, dispatch logs, and
// statistics — the sharded engine's analogue of the golden determinism
// harness.
func TestClusterDeterminism3DC(t *testing.T) {
	matrix := clusterPET(t)
	run := func() ([]byte, []Dispatch) {
		traces, dispatches, _, _ := clusterTrial(t, matrix, "PAM", "pet-aware", outageScenario(scenario.Requeue))
		return traces, dispatches
	}
	t1, d1 := run()
	t2, d2 := run()
	if string(t1) != string(t2) {
		t.Fatal("3-DC decision traces differ between identical runs")
	}
	if len(d1) != len(d2) {
		t.Fatalf("dispatch logs differ in length: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("dispatch %d differs: %+v vs %+v", i, d1[i], d2[i])
		}
	}
}

// TestDCRecoverRespectsMachineScopedFailures pins the outage/brownout
// boundary: a machine that was already down for a machine-scoped reason
// when its datacenter dc-failed stays down through the dc-recover and
// comes back only at its own Recover event.
func TestDCRecoverRespectsMachineScopedFailures(t *testing.T) {
	matrix := clusterPET(t)
	tasks := clusterWorkload(t, matrix, 200, 11)
	sc := scenario.New("mixed").
		FailAt(50, 0, scenario.Requeue). // machine-scoped: m0 down 50..300
		RecoverAt(300, 0).
		DCFailAt(100, 0, scenario.Requeue). // whole-DC: dc0 (m0, m1) down 100..200
		DCRecoverAt(200, 0)
	cfg := clusterConfig(t, "PAM", matrix, 3, nil, sc)
	rec := trace.NewRecorder()
	cfg.Traces = []*trace.Recorder{rec, nil, nil}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.RunSource(workload.FromTasks(tasks)); err != nil {
		t.Fatal(err)
	}
	recoveredAt := map[int][]int64{}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.MachineRecovered {
			recoveredAt[ev.Machine] = append(recoveredAt[ev.Machine], ev.Tick)
		}
	}
	if got := recoveredAt[1]; len(got) != 1 || got[0] != 200 {
		t.Errorf("machine 1 recoveries at %v, want exactly [200] (dc-recover)", got)
	}
	if got := recoveredAt[0]; len(got) != 1 || got[0] != 300 {
		t.Errorf("machine 0 recoveries at %v, want exactly [300] (its own Recover, not the dc-recover)", got)
	}
}

// TestMachineFailDuringOutageStaysDown: a machine-scoped Fail that fires
// while its datacenter is dc-failed takes ownership of the machine's down
// state — the dc-recover must not revive it ahead of its (absent) Recover.
func TestMachineFailDuringOutageStaysDown(t *testing.T) {
	matrix := clusterPET(t)
	tasks := clusterWorkload(t, matrix, 200, 11)
	sc := scenario.New("mid-outage-fail").
		DCFailAt(100, 0, scenario.Requeue).
		FailAt(150, 0, scenario.Requeue). // machine-scoped, no Recover ever
		DCRecoverAt(200, 0)
	cfg := clusterConfig(t, "PAM", matrix, 3, nil, sc)
	rec := trace.NewRecorder()
	cfg.Traces = []*trace.Recorder{rec, nil, nil}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.RunSource(workload.FromTasks(tasks)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.MachineRecovered && ev.Machine == 0 {
			t.Fatalf("machine 0 recovered at t=%d despite its unrecovered machine-scoped failure", ev.Tick)
		}
	}
	for _, m := range eng.DCList()[0].Sim().Machines() {
		if m.ID == 0 && m.Alive() {
			t.Fatal("machine 0 alive after the trial")
		}
		if m.ID == 1 && !m.Alive() {
			t.Fatal("machine 1 not revived by the dc-recover")
		}
	}
}

// TestDoubleDCFailIsNoOp: dc-failing an already-failed datacenter is a
// no-op (mirroring machine.Fail), so the eventual dc-recover still knows
// which machines the outage took down.
func TestDoubleDCFailIsNoOp(t *testing.T) {
	matrix := clusterPET(t)
	tasks := clusterWorkload(t, matrix, 200, 11)
	sc := scenario.New("double-fail").
		DCFailAt(100, 0, scenario.Requeue).
		DCFailAt(150, 0, scenario.Requeue).
		DCRecoverAt(250, 0).
		DCRecoverAt(300, 0) // recovering an in-service DC: also a no-op
	cfg := clusterConfig(t, "PAM", matrix, 3, nil, sc)
	rec := trace.NewRecorder()
	cfg.Traces = []*trace.Recorder{rec, nil, nil}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.RunSource(workload.FromTasks(tasks)); err != nil {
		t.Fatal(err)
	}
	recovered := map[int][]int64{}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.MachineRecovered {
			recovered[ev.Machine] = append(recovered[ev.Machine], ev.Tick)
		}
	}
	for _, mi := range eng.DCList()[0].Machines() {
		if got := recovered[mi]; len(got) != 1 || got[0] != 250 {
			t.Errorf("machine %d recoveries at %v, want exactly [250]", mi, got)
		}
	}
	for _, m := range eng.DCList()[0].Sim().Machines() {
		if !m.Alive() {
			t.Fatalf("machine %d still down after the dc-recover", m.ID)
		}
	}
}

// TestClusterEventsDeclaredOutOfOrder: dc-fail/dc-recover events fire in
// (tick, declaration) order whatever order the scenario declares them in.
// The same schedule, declared sorted and shuffled under one name (the two
// tick-140 events keep their relative order, and the recovery before the
// fail decides where DC 2's drained tasks go), must replay the same record
// under round-robin and pet-aware routing, with the oracle dispatcher and
// with heartbeat detection behind a gate buffer.
func TestClusterEventsDeclaredOutOfOrder(t *testing.T) {
	matrix := clusterPET(t)
	events := []scenario.Event{
		{Tick: 60, Kind: scenario.DCFail, DC: 0, Policy: scenario.Requeue},
		{Tick: 100, Kind: scenario.DCFail, DC: 1, Policy: scenario.Drop},
		{Tick: 140, Kind: scenario.DCRecover, DC: 0},
		{Tick: 140, Kind: scenario.DCFail, DC: 2, Policy: scenario.Requeue},
		{Tick: 180, Kind: scenario.DCRecover, DC: 1},
		{Tick: 220, Kind: scenario.DCRecover, DC: 2},
	}
	build := func(order []int, fo *scenario.FailoverPolicy) *scenario.Scenario {
		sc := scenario.New("out-of-order")
		for _, i := range order {
			sc.Events = append(sc.Events, events[i])
		}
		if fo != nil {
			sc = sc.WithFailover(*fo)
		}
		return sc
	}
	sorted := []int{0, 1, 2, 3, 4, 5}
	shuffled := []int{5, 2, 1, 4, 0, 3}
	heartbeat := &scenario.FailoverPolicy{
		Kind: scenario.FailoverHeartbeat, HeartbeatEvery: 20, SuspectAfter: 2,
		Probation: 20, BounceAfter: 10, MaxRetries: 3, RetryBase: 5, RetryCap: 20,
		GateBuffer: 8, Shed: scenario.ShedDropOldest,
	}
	for _, route := range []string{"round-robin", "pet-aware"} {
		for _, fo := range []*scenario.FailoverPolicy{nil, heartbeat} {
			want, log, _, _ := clusterTrial(t, matrix, "PAM", route, build(sorted, fo))
			got, _, _, _ := clusterTrial(t, matrix, "PAM", route, build(shuffled, fo))
			if string(got) != string(want) {
				t.Errorf("%s, detection %v: shuffled declaration replays differently from sorted", route, fo != nil)
			}
			if fo != nil {
				continue
			}
			// Under the oracle, DC 0 is back in service when DC 2 fails at
			// tick 140, so DC 2's drained tasks fail over into it; in the
			// reverse order no datacenter would be up to take them.
			into0 := 0
			for _, d := range log {
				if d.Tick == 140 && d.Failover && d.DC == 0 {
					into0++
				}
			}
			if into0 == 0 {
				t.Errorf("%s: no drained task failed over into DC 0 at tick 140", route)
			}
		}
	}
}
