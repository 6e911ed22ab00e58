package cluster

import (
	"reflect"
	"runtime"
	"testing"

	"taskprune/internal/metrics"
	"taskprune/internal/scenario"
	"taskprune/internal/task"
	"taskprune/internal/workload"
)

// runFailoverTrial runs one recorded trial and returns the engine for
// counter inspection alongside the aggregate statistics.
func runFailoverTrial(t *testing.T, heuristic string, dcs int, policy Policy, sc *scenario.Scenario, nTasks int, seed int64) (*Engine, metrics.TrialStats, []metrics.TrialStats) {
	t.Helper()
	matrix := clusterPET(t)
	cfg := clusterConfig(t, heuristic, matrix, dcs, policy, sc)
	cfg.RecordDispatch = true
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, perDC, err := eng.RunSource(workload.FromTasks(clusterWorkload(t, matrix, nTasks, seed)))
	if err != nil {
		t.Fatal(err)
	}
	return eng, st, perDC
}

// assertExitAccounting pins the three-way loss split: every task exits
// either inside exactly one datacenter or at the gate in exactly one of
// the three gate classes (dropped, shed, lost-to-undetected), so the
// per-DC totals plus the sum of the three gate counters must reproduce
// the cluster total exactly (Total is untrimmed, unlike the per-outcome
// window counts).
func assertExitAccounting(t *testing.T, st metrics.TrialStats, perDC []metrics.TrialStats, g metrics.GateStats) {
	t.Helper()
	inDC := 0
	for _, s := range perDC {
		inDC += s.Total
	}
	if st.Total != inDC+g.EngineExits() {
		t.Fatalf("exit accounting broken: cluster total %d, per-DC %d + gate exits %d (%+v)",
			st.Total, inDC, g.EngineExits(), g)
	}
}

// TestDetectionLagWindow pins the heartbeat monitor's timeline. DC 0
// truly fails at t=100 under a 20-tick heartbeat with SuspectAfter=2: the
// fail settles before the observation at 100, so heartbeats 100 and 120
// are missed and detection lands at 120. Until then the dispatcher keeps
// routing arrivals into the dead datacenter (they bounce); from 120 until
// re-trust it must not; after recovery at 250 the first heartbeat (260)
// plus 20 ticks of probation re-admits DC 0 at 280.
func TestDetectionLagWindow(t *testing.T) {
	sc := scenario.New("detect").
		DCFailAt(100, 0, scenario.Requeue).
		DCRecoverAt(250, 0).
		WithFailover(scenario.FailoverPolicy{
			Kind: scenario.FailoverHeartbeat, HeartbeatEvery: 20, SuspectAfter: 2,
			Probation: 20, BounceAfter: 10, RetryBase: 5, RetryCap: 40,
		})
	eng, st, perDC := runFailoverTrial(t, "PAM", 3, nil, sc, 200, 5)
	if st.Total != 200 {
		t.Fatalf("cluster accounted %d of 200 tasks", st.Total)
	}
	intoDead, duringSuspect, afterTrust := 0, 0, 0
	for _, d := range eng.Dispatches() {
		if d.DC != 0 {
			continue
		}
		switch {
		case d.Tick >= 100 && d.Tick < 120:
			intoDead++
		case d.Tick >= 120 && d.Tick < 280:
			duringSuspect++
		case d.Tick >= 280:
			afterTrust++
		}
	}
	if intoDead == 0 {
		t.Error("no arrivals routed into the dead-but-undetected datacenter in [100,120)")
	}
	if duringSuspect != 0 {
		t.Errorf("%d dispatches to DC 0 while it was believed down ([120,280))", duringSuspect)
	}
	if afterTrust == 0 {
		t.Error("re-trusted datacenter never received tasks after probation (t>=280)")
	}
	g := eng.Gate()
	if g.Detections != 1 || g.DetectionLagTicks != 20 {
		t.Errorf("detections=%d lag=%d, want exactly 1 detection with 20 ticks of lag", g.Detections, g.DetectionLagTicks)
	}
	if g.Bounced == 0 {
		t.Error("dispatches into the undetected outage never bounced")
	}
	if g.Bounced != g.Retries+g.LostUndetected {
		t.Errorf("every bounce must end in a retry or a loss: bounced %d, retries %d, lost %d", g.Bounced, g.Retries, g.LostUndetected)
	}
	assertExitAccounting(t, st, perDC, g)
}

// TestUndetectedOutageSalvagesAtRecovery: when the outage is shorter than
// the detection timeout (heartbeat 200, fail at 100, recover at 250 <
// first possible detection at 400), the monitor never flags it. The
// drained tasks resurface at the recovery tick, and the dispatcher keeps
// routing into the dead datacenter for the whole outage.
func TestUndetectedOutageSalvagesAtRecovery(t *testing.T) {
	sc := scenario.New("unseen").
		DCFailAt(100, 0, scenario.Requeue).
		DCRecoverAt(250, 0).
		WithFailover(scenario.FailoverPolicy{
			Kind: scenario.FailoverHeartbeat, HeartbeatEvery: 200, SuspectAfter: 2,
			BounceAfter: 10, RetryBase: 5, RetryCap: 40,
		})
	eng, st, perDC := runFailoverTrial(t, "PAM", 3, nil, sc, 200, 5)
	g := eng.Gate()
	if g.Detections != 0 {
		t.Fatalf("outage shorter than the detection timeout was detected %d times", g.Detections)
	}
	salvaged, duringOutage := 0, 0
	for _, d := range eng.Dispatches() {
		if d.Failover && d.Tick == 250 {
			salvaged++
		}
		if !d.Failover && d.DC == 0 && d.Tick >= 100 && d.Tick < 250 {
			duringOutage++
		}
	}
	if salvaged == 0 {
		t.Error("no drained tasks salvaged at the recovery tick")
	}
	if duringOutage == 0 {
		t.Error("believed-healthy dead datacenter received no arrivals during the outage")
	}
	if g.Bounced == 0 {
		t.Error("dispatches into the undetected outage never bounced")
	}
	if st.Total != 200 {
		t.Fatalf("cluster accounted %d of 200 tasks", st.Total)
	}
	assertExitAccounting(t, st, perDC, g)
}

// TestGateBufferHoldsBlackout: with the oracle detector and a roomy gate
// buffer, a total blackout queues arrivals instead of dropping them and
// drains the backlog in FIFO order when a datacenter returns.
func TestGateBufferHoldsBlackout(t *testing.T) {
	// Drop policy at the dc-fails: the held tasks exit inside their
	// datacenters, so the only gate traffic is arrivals — which keeps the
	// buffer pure FIFO-by-arrival for the drain-order check below.
	outage := func(fo *scenario.FailoverPolicy) *scenario.Scenario {
		sc := scenario.New("blackout").
			DCFailAt(100, 0, scenario.Drop).
			DCFailAt(100, 1, scenario.Drop).
			DCRecoverAt(280, 0)
		if fo != nil {
			sc = sc.WithFailover(*fo)
		}
		return sc
	}
	bareEng, bare, _ := runFailoverTrial(t, "MM", 2, nil, outage(nil), 150, 9)
	if bareEng.Gate().Dropped == 0 {
		t.Fatal("bufferless blackout dropped nothing at the gate")
	}
	eng, st, perDC := runFailoverTrial(t, "MM", 2, nil, outage(&scenario.FailoverPolicy{GateBuffer: 256}), 150, 9)
	g := eng.Gate()
	if g.Dropped != 0 || g.Shed != 0 {
		t.Fatalf("roomy buffer still lost tasks at the gate: %+v", g)
	}
	if g.Buffered == 0 || g.MaxQueueDepth == 0 {
		t.Fatalf("blackout buffered nothing: %+v", g)
	}
	if st.Total != 150 || bare.Total != 150 {
		t.Fatalf("cluster accounted %d/%d of 150 tasks", st.Total, bare.Total)
	}
	// FIFO drain: the buffer empties at the recovery tick, oldest first.
	drained, prevID, fifo := 0, -1, true
	for _, d := range eng.Dispatches() {
		if d.Tick == 280 && !d.Failover && d.DC >= 0 {
			drained++
			if d.TaskID < prevID {
				fifo = false
			}
			prevID = d.TaskID
		}
	}
	if drained == 0 {
		t.Error("no buffered tasks drained at the recovery tick")
	}
	if !fifo {
		t.Error("buffer drain is not FIFO (task IDs not monotone at the drain tick)")
	}
	assertExitAccounting(t, st, perDC, g)
}

// TestGateBufferOverflowSheds: a blackout that never ends fills a small
// buffer, sheds the overflow, and flushes the stragglers at end of trial —
// all attributed to Shed, never to gate drops.
func TestGateBufferOverflowSheds(t *testing.T) {
	sc := scenario.New("dark").
		DCFailAt(100, 0, scenario.Requeue).
		DCFailAt(100, 1, scenario.Requeue).
		WithFailover(scenario.FailoverPolicy{GateBuffer: 8, Shed: scenario.ShedDropOldest})
	eng, st, perDC := runFailoverTrial(t, "MM", 2, nil, sc, 150, 9)
	g := eng.Gate()
	if g.Dropped != 0 {
		t.Errorf("buffered gate recorded %d plain drops", g.Dropped)
	}
	if g.Shed == 0 {
		t.Error("overflowing buffer shed nothing")
	}
	if g.MaxQueueDepth != 8 {
		t.Errorf("max queue depth %d, want the 8-slot capacity", g.MaxQueueDepth)
	}
	if g.Buffered != g.Shed {
		t.Errorf("permanent blackout: every buffered task must eventually shed (%d buffered, %d shed)", g.Buffered, g.Shed)
	}
	if st.Total != 150 {
		t.Fatalf("cluster accounted %d of 150 tasks", st.Total)
	}
	assertExitAccounting(t, st, perDC, g)
}

// TestShedPolicies pins the overflow victim selection of each ShedKind at
// the unit level, buffer contents included.
func TestShedPolicies(t *testing.T) {
	mk := func(id int, deadline int64) *task.Task {
		return &task.Task{ID: id, Deadline: deadline}
	}
	ids := func(buf []*task.Task) []int {
		out := make([]int, len(buf))
		for i, b := range buf {
			out[i] = b.ID
		}
		return out
	}
	cases := []struct {
		name     string
		shed     scenario.ShedKind
		incoming *task.Task
		wantBuf  []int
		wantShed int // ID of the victim
	}{
		{"drop-newest", scenario.ShedDropNewest, mk(3, 300), []int{1, 2}, 3},
		{"drop-oldest", scenario.ShedDropOldest, mk(3, 300), []int{2, 3}, 1},
		{"deadline-aware picks earliest deadline", scenario.ShedDeadlineAware, mk(3, 150), []int{2, 3}, 1},
		{"deadline-aware keeps buffer on tie", scenario.ShedDeadlineAware, mk(3, 50), []int{1, 2}, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := &Engine{
				fo:        &scenario.FailoverPolicy{GateBuffer: 2, Shed: c.shed},
				collector: metrics.NewStream(1, metrics.DefaultTrim),
			}
			e.buf = []*task.Task{mk(1, 50), mk(2, 200)}
			e.bufferTask(c.incoming, 10)
			if got := ids(e.buf); !reflect.DeepEqual(got, c.wantBuf) {
				t.Errorf("buffer after overflow = %v, want %v", got, c.wantBuf)
			}
			if e.gateStats.Shed != 1 {
				t.Errorf("shed counter = %d, want 1", e.gateStats.Shed)
			}
		})
	}
}

// TestRetryExhaustionLoses: every datacenter fails far below the detection
// timeout, so the dispatcher keeps believing in them and every arrival
// bounces through its retry budget (2 retries) before being lost to the
// undetected outage — the third loss class, attributed per datacenter.
func TestRetryExhaustionLoses(t *testing.T) {
	sc := scenario.New("blind").
		DCFailAt(100, 0, scenario.Requeue).
		DCFailAt(100, 1, scenario.Requeue).
		WithFailover(scenario.FailoverPolicy{
			Kind: scenario.FailoverHeartbeat, HeartbeatEvery: 500, SuspectAfter: 2,
			BounceAfter: 10, MaxRetries: 2, RetryBase: 4, RetryCap: 16,
		})
	eng, st, perDC := runFailoverTrial(t, "PAM", 2, nil, sc, 150, 9)
	g := eng.Gate()
	if g.LostUndetected == 0 {
		t.Fatal("no tasks lost to the undetected blackout")
	}
	if g.Shed != 0 {
		t.Errorf("no buffer configured, yet tasks were shed: %+v", g)
	}
	// With no recovery scheduled, the monitor does flag both outages —
	// at heartbeat 500 plus one more missed beat: detection at t=1000,
	// 900 ticks after the t=100 failures. Long after the last arrival,
	// but deterministic, and the remaining in-flight retries then drop
	// at the gate (no believed-healthy datacenter, no buffer).
	if g.Detections != 2 || g.DetectionLagTicks != 1800 {
		t.Errorf("detections=%d lag=%d, want both outages flagged at t=1000 (2 detections, 1800 total lag)", g.Detections, g.DetectionLagTicks)
	}
	if g.Bounced != g.Retries+g.LostUndetected {
		t.Errorf("every bounce must end in a retry or a loss: bounced %d, retries %d, lost %d", g.Bounced, g.Retries, g.LostUndetected)
	}
	perDCLost := eng.LostUndetectedByDC()
	sum := 0
	for _, n := range perDCLost {
		sum += n
	}
	if sum != g.LostUndetected {
		t.Errorf("per-DC loss attribution sums to %d, want %d (%v)", sum, g.LostUndetected, perDCLost)
	}
	if perDCLost[0] == 0 || perDCLost[1] == 0 {
		t.Errorf("round-robin bouncing must lose tasks against both datacenters: %v", perDCLost)
	}
	if st.Total != 150 {
		t.Fatalf("cluster accounted %d of 150 tasks", st.Total)
	}
	assertExitAccounting(t, st, perDC, g)
}

// detectStormScenario is the full detection workout: three staggered
// dc-fails (the last under the Drop policy) blacking the believed-healthy
// set out mid-trial, staggered recoveries with probation, retries with
// backoff, and a small deadline-aware gate buffer that must overflow.
func detectStormScenario() *scenario.Scenario {
	return scenario.New("detect-storm").
		DCFailAt(100, 0, scenario.Requeue).
		DCFailAt(120, 1, scenario.Requeue).
		DCFailAt(140, 2, scenario.Drop).
		DCRecoverAt(250, 0).
		DCRecoverAt(270, 1).
		DCRecoverAt(300, 2).
		WithFailover(scenario.FailoverPolicy{
			Kind: scenario.FailoverHeartbeat, HeartbeatEvery: 25, SuspectAfter: 2,
			Probation: 30, BounceAfter: 10, MaxRetries: 3, RetryBase: 5, RetryCap: 20,
			GateBuffer: 16, Shed: scenario.ShedDeadlineAware,
		})
}

// TestClusterParallelStepDeterminismDetection extends the parallel
// driver's byte-identity contract to the detection layer: with heartbeat
// detection, bounded buffering with deadline-aware shedding, and
// retry/backoff all active, the wide-window driver (round-robin) must
// reproduce the sequential record — traces, dispatch log, statistics, and
// every gate counter — at every GOMAXPROCS setting. Stateful routes are
// refused the parallel knob (parallelArm) and replay the sequential path.
// Runs under -race via make race-cluster.
func TestClusterParallelStepDeterminismDetection(t *testing.T) {
	matrix := clusterPET(t)
	sc := detectStormScenario()
	for _, route := range []string{"pet-aware", "least-queued", "round-robin"} {
		t.Run(route, func(t *testing.T) {
			par := parallelArm(t, route)
			wantBlob, _, wantStats, wantPerDC := clusterTrialMode(t, matrix, "PAM", route, sc, false)
			for _, gmp := range []int{1, 4, 8} {
				prev := runtime.GOMAXPROCS(gmp)
				blob, _, stats, perDC := clusterTrialMode(t, matrix, "PAM", route, sc, par)
				runtime.GOMAXPROCS(prev)
				if string(blob) != string(wantBlob) {
					t.Fatalf("GOMAXPROCS=%d: parallel detection record diverges from sequential (%d vs %d bytes)",
						gmp, len(blob), len(wantBlob))
				}
				if !reflect.DeepEqual(stats, wantStats) {
					t.Fatalf("GOMAXPROCS=%d: cluster stats diverge:\nseq: %+v\npar: %+v", gmp, wantStats, stats)
				}
				if !reflect.DeepEqual(perDC, wantPerDC) {
					t.Fatalf("GOMAXPROCS=%d: per-DC stats diverge", gmp)
				}
			}
		})
	}
}

// TestGoldenClusterDetect commits the full deterministic record of a
// detection-enabled storm trial — gate counters included — alongside the
// oracle goldens. Regenerate with -update and review like any scheduling
// change.
func TestGoldenClusterDetect(t *testing.T) {
	blob, _, _, _ := clusterTrial(t, clusterPET(t), "PAM", "pet-aware", detectStormScenario())
	checkGolden(t, "golden_cluster_detect.csv", blob)
}

// TestFailoverConfigPrecedence: a malformed failover policy is rejected at
// New even on a static scenario (which skips cluster scenario validation
// entirely).
func TestFailoverConfigPrecedence(t *testing.T) {
	sc := scenario.New("bad").WithFailover(scenario.FailoverPolicy{GateBuffer: -1})
	if _, err := New(clusterConfig(t, "PAM", clusterPET(t), 3, nil, sc)); err == nil {
		t.Fatal("malformed failover policy accepted on a static scenario")
	}
}

// pinPolicy sends task 1 to datacenter 1 and every other task to the first
// believed-healthy datacenter.
type pinPolicy struct{}

func (pinPolicy) Name() string { return "pin" }

func (pinPolicy) Pick(_ int64, t *task.Task, dcs []*DC) int {
	if t.ID == 1 || !dcs[0].Alive() {
		return 1
	}
	return 0
}

// TestInjectedTaskExpiresOnTime: a task failed over into another
// datacenter's batch exits dropped at that datacenter's first event past
// its deadline, although its deadline precedes every deadline the batch
// already held. Datacenter 1's machines (3–5) start down, so A (deadline
// 100), drained from datacenter 0 at tick 10, and C (deadline 1000) wait in
// its batch until machine 3 recovers at 150.
func TestInjectedTaskExpiresOnTime(t *testing.T) {
	matrix := clusterPET(t)
	sc := scenario.New("inject-expiry").StartDown(3, 4, 5).DCFailAt(10, 0, scenario.Requeue).RecoverAt(150, 3)
	eng, err := New(clusterConfig(t, "MM", matrix, 2, pinPolicy{}, sc))
	if err != nil {
		t.Fatal(err)
	}
	fixed := func(id int, deadline, exec int64) *task.Task {
		tk := task.New(id, 0, 0, deadline)
		tk.TrueExec = make([]int64, matrix.NumMachines())
		for mi := range tk.TrueExec {
			tk.TrueExec[mi] = exec
		}
		return tk
	}
	a, c := fixed(0, 100, 50), fixed(1, 1000, 20)
	if _, _, err := eng.RunSource(workload.FromTasks([]*task.Task{a, c})); err != nil {
		t.Fatal(err)
	}
	if eng.injected != 1 {
		t.Fatalf("dc-fail injected %d tasks into datacenter 1, want A", eng.injected)
	}
	if a.State != task.StateDropped || a.Finish != 150 {
		t.Errorf("injected A (deadline 100) exits %v at %d, want dropped at the recovery, 150", a.State, a.Finish)
	}
	if c.State != task.StateCompleted {
		t.Errorf("C exits %v, want completed after the recovery", c.State)
	}
}
