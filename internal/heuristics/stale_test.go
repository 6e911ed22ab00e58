package heuristics

import (
	"strings"
	"testing"

	"taskprune/internal/machine"
	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/pruner"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

const staleNow = 20_000

// staleDraw draws the stale rule's test events and tasks from one seed.
type staleDraw struct {
	rng    *stats.RNG
	matrix *pet.Matrix
	id     int
}

// task draws a task of a random type, restored a fifth of the time, due
// between lo and hi ticks after staleNow.
func (sd *staleDraw) task(lo, hi int) *task.Task {
	consumed := []int64{20, 40, 80}
	tk := task.New(sd.id, task.Type(sd.rng.Intn(sd.matrix.NumTypes())), 0, staleNow+int64(lo+sd.rng.Intn(hi-lo)))
	if sd.rng.Float64() < 0.2 {
		tk.Consumed = consumed[sd.rng.Intn(len(consumed))]
	}
	sd.id++
	return tk
}

// event draws one PAM (or, with fair, PAMF) event on the SPEC fleet at
// staleNow under Evict with compaction bound k: every machine has an
// executing head (started up to 300 ticks ago, some restored from a
// checkpoint) and one to five queued tasks in all, a fifth of the machines
// are degraded before the head started and some again after, and the
// batch holds up to four tasks of random types, a fifth of them restored,
// with deadlines from tight to loose. Under PAMF each type's sufferage is
// random, so floors differ by type.
func (sd *staleDraw) event(k int, fair bool) (*Context, []*task.Task) {
	rng, matrix := sd.rng, sd.matrix
	speeds := []float64{1.5, 2, 3}
	ctx := &Context{
		Now: staleNow, Machines: make([]*machine.Machine, matrix.NumMachines()), PET: matrix,
		Mode: pmf.Evict, MaxImpulses: k, Pruner: pruner.New(pruner.DefaultConfig()),
		Arena: pmf.NewArena(), Cache: NewEvalCache(),
	}
	if fair {
		ctx.Fairness = pruner.NewFairnessTracker(matrix.NumTypes(), 0.05)
		for range rng.Intn(40) {
			ctx.Fairness.RecordFailure(task.Type(rng.Intn(matrix.NumTypes())))
		}
	}
	for mi := range ctx.Machines {
		m := machine.New(mi, "m", mapEventQueueCap, 0)
		ctx.Machines[mi] = m
		if rng.Float64() < 0.2 {
			m.SetSpeed(speeds[rng.Intn(len(speeds))])
		}
		for range 1 + rng.Intn(mapEventQueueCap-1) {
			if err := m.Enqueue(sd.task(100, 3000)); err != nil {
				panic(err)
			}
		}
		m.StartNext(staleNow - int64(rng.Intn(300)))
		if rng.Float64() < 0.1 {
			m.SetSpeed(speeds[rng.Intn(len(speeds))])
		}
	}
	batch := make([]*task.Task, rng.Intn(5))
	for i := range batch {
		batch[i] = sd.task(20, 1200)
	}
	return ctx, batch
}

// boundaryTask returns a task of type typ with the given banked progress
// whose deadline is the earliest at which its success on tail, machine
// mi's tail at the clock, reaches its defer floor, or nil when no deadline
// within 20,000 ticks does. It is the batch task a slack too small lets
// the stale rule rule out wrongly.
func (sd *staleDraw) boundaryTask(ctx *Context, mi int, tail *pmf.PMF, typ task.Type, consumed int64) *task.Task {
	tk := task.New(sd.id, typ, 0, 0)
	tk.Consumed = consumed
	sd.id++
	floor := deferFloor(ctx, tk)
	reaches := func(deadline int64) bool {
		success, _ := pmf.DropEval(tail, ctx.PET.Entry(tk.Type, mi, ctx.Machines[mi].Speed(), tk.Consumed).Prof, deadline, ctx.Mode)
		return success >= floor
	}
	lo, hi := ctx.Now, ctx.Now+20_000
	if !reaches(hi) {
		return nil
	}
	for lo+1 < hi {
		if mid := (lo + hi) / 2; reaches(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	tk.Deadline = hi
	return tk
}

// TestStaleRuleIsSound: on generated queues, whenever the stale rule rules
// a machine out, a rebuilt tail confirms it: every batch task's DropEval
// success on that machine lies below its defer floor. Each event builds
// every memo at the clock, sometimes extends one by a write-through
// commit, then advances the clock at fixed queue versions, so the memos
// go stale, and adds to the batch a task due exactly when it first
// reaches its floor on one random machine; every fourth event also asks
// the rule directly about such tasks (probeBoundaries). Coarse compaction
// (2 and 4 impulses) is where a slack too small to cover Compact's moves
// shows; the default 32 is where the rule earns its keep. A ruled-out
// machine keeps its memo and stamp.
func TestStaleRuleIsSound(t *testing.T) {
	sd := &staleDraw{
		rng:    stats.NewRNG(35),
		matrix: pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC)),
	}
	for _, k := range []int{2, 4, pmf.DefaultMaxImpulses} {
		var stale, ruledOut, rebuilt, restored, degraded, boundaryProbes int
		for d := range 800 {
			ctx, batch := sd.event(k, d%2 == 1)
			st := newProbState(ctx, batch)
			if d%3 == 0 {
				for _, mi := range st.open {
					if ctx.Machines[mi].FreeSlots() > 1 {
						st.commit(ctx, sd.task(2000, 2001), mi)
						break
					}
				}
			}
			ctx.Now += 1 + int64(sd.rng.Intn(200))
			ctx.Arena.Reset()
			consumed := []int64{0, 0, 0, 0, 40}[sd.rng.Intn(5)]
			mi := sd.rng.Intn(len(ctx.Machines))
			if tk := sd.boundaryTask(ctx, mi, freshTail(ctx, mi), task.Type(sd.rng.Intn(sd.matrix.NumTypes())), consumed); tk != nil {
				batch = append(batch, tk)
			}
			stamps := append([]uint64(nil), ctx.Cache.stamps...)
			keys := make([]int64, len(ctx.Machines))
			for mi := range ctx.Machines {
				keys[mi] = ctx.Cache.memo[mi].key
			}
			if d%4 == 0 {
				boundaryProbes += probeBoundaries(t, ctx, sd, k, d)
			}
			st = newProbState(ctx, batch)
			for _, mi := range st.open {
				if keys[mi] == ctx.Cache.memo[mi].key && st.tails[mi] != nil {
					continue // a hit: the clock did not pass the head's next impulse
				}
				stale++
				if st.tails[mi] != nil {
					rebuilt++
					continue
				}
				ruledOut++
				if ctx.Cache.stamps[mi] != stamps[mi] {
					t.Errorf("k=%d draw %d: ruled-out machine %d's stamp moved", k, d, mi)
				}
				m := ctx.Machines[mi]
				if m.Speed() != 1 || m.RunFactor() != 1 {
					degraded++
				}
				fresh := freshTail(ctx, mi)
				for _, tk := range batch {
					if tk.Consumed > 0 {
						restored++
					}
					success, _ := pmf.DropEval(fresh, ctx.entry(tk, mi).Prof, tk.Deadline, ctx.Mode)
					if floor := deferFloor(ctx, tk); success >= floor {
						t.Errorf("k=%d draw %d: machine %d ruled out, but task %d (type %d, deadline %d, consumed %d) reaches %.6f >= floor %.6f",
							k, d, mi, tk.ID, tk.Type, tk.Deadline, tk.Consumed, success, floor)
					}
				}
			}
		}
		t.Logf("k=%d: %d stale machines, %d ruled out, %d rebuilt; %d restored-task checks, %d degraded machines ruled out; %d boundary probes",
			k, stale, ruledOut, rebuilt, restored, degraded, boundaryProbes)
		if ruledOut == 0 || rebuilt == 0 || restored == 0 || degraded == 0 || boundaryProbes < 10_000 {
			t.Errorf("k=%d: premise draws: %d ruled out, %d rebuilt, %d restored checks, %d degraded, %d boundary probes; want some of each and 10,000 probes",
				k, ruledOut, rebuilt, restored, degraded, boundaryProbes)
		}
	}
}

// probeBoundaries asks the stale rule about every stale machine of the
// event, one task at a time: for each type, unrestored and restored, and
// each of several defer thresholds, a task due exactly when its success on
// the machine's rebuilt tail first reaches its floor. The rule must rebuild
// for every one of them. It reads the memos and changes none. It returns
// how many probes it made.
func probeBoundaries(t *testing.T, ctx *Context, sd *staleDraw, k, d int) int {
	t.Helper()
	c, saved := ctx.Cache, ctx.Pruner
	defer func() { ctx.Pruner = saved }()
	n := 0
	for mi, m := range ctx.Machines {
		e := &c.memo[mi]
		_, exec, origin := m.Head(ctx.PET)
		if m.FreeSlots() == 0 || !e.valid || e.ver != m.Version() || !e.hasExec {
			continue
		}
		if key, ok := exec.FirstImpulseAt(ctx.Now - origin); !ok || key <= e.key {
			continue
		}
		tail := freshTail(ctx, mi)
		for _, th := range []float64{0.5, 0.9} {
			cfg := pruner.DefaultConfig()
			cfg.DeferThreshold = th
			ctx.Pruner = pruner.New(cfg)
			for typ := range sd.matrix.NumTypes() {
				for _, consumed := range []int64{0, 40} {
					tk := sd.boundaryTask(ctx, mi, tail, task.Type(typ), consumed)
					if tk == nil {
						continue
					}
					n++
					c.probed = false
					if c.staleRulesOut(ctx, mi, m, []*task.Task{tk}) {
						success, _ := pmf.DropEval(tail, ctx.entry(tk, mi).Prof, tk.Deadline, ctx.Mode)
						t.Errorf("k=%d draw %d: machine %d ruled out, but a type-%d task (consumed %d) due at %d reaches %.6f >= floor %.6f",
							k, d, mi, typ, consumed, tk.Deadline, success, deferFloor(ctx, tk))
					}
				}
			}
		}
	}
	c.probed = false
	return n
}

// TestStaleSlackCoversBothChains is a head-only queue at two impulses
// where the stale rule needs both halves of its slack. The head's
// execution PMF has 0.005 at tick 90, 0.29 at 121, 0.015 at 157 and 0.69
// at 200; the batch task runs exactly 37 ticks with a defer threshold of
// 0.3. The memo, built at tick 28, compacts [90, 200] to {120: 0.295,
// 199: 0.705}, carrying the mass at 157 up to 199 (S_memo = 55). At tick
// 99 the head is conditioned past 90 and the rebuilt tail compacts [121,
// 200] to {123: 0.3065, 200: 0.6935}, carrying that mass down to 123, so
// a deadline of 160 reaches the floor. With W = S_memo or W = S_now (50)
// alone, the memo's bound puts the 0.705 too late and rules the machine
// out; W = 105 counts it, and the rule must rebuild.
func TestStaleSlackCoversBothChains(t *testing.T) {
	matrix, err := pet.ReadJSON(strings.NewReader(`{"version": 1, "num_types": 2, "num_machines": 1, "entries": [
		{"type": 0, "machine": 0, "mean": 150, "shape": 1, "ticks": [90, 121, 157, 200], "probs": [0.005, 0.29, 0.015, 0.69]},
		{"type": 1, "machine": 0, "mean": 37, "shape": 1, "ticks": [37], "probs": [1]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := pruner.DefaultConfig()
	cfg.DeferThreshold = 0.3
	m := machine.New(0, "m", mapEventQueueCap, 0)
	ctx := &Context{
		Now: 28, Machines: []*machine.Machine{m}, PET: matrix, Mode: pmf.Evict, MaxImpulses: 2,
		Pruner: pruner.New(cfg), Arena: pmf.NewArena(), Cache: NewEvalCache(),
	}
	if err := m.Enqueue(task.New(0, 0, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	m.StartNext(0)
	batch := []*task.Task{task.New(1, 1, 0, 160)}
	newProbState(ctx, batch)

	ctx.Now = 99
	e := &ctx.Cache.memo[0]
	memoBound, memoSlack := e.bound, e.slack
	ex, exec, origin := m.Head(matrix)
	nowSlack := chainSlack(ctx, m, ex, exec, origin)
	prof, floor := matrix.Profile(1, 0), deferFloor(ctx, batch[0])
	success, _ := pmf.DropEval(freshTail(ctx, 0), prof, batch[0].Deadline, ctx.Mode)
	if success < floor || !memoBound.Below(prof, batch[0].Deadline+memoSlack, floor) || !memoBound.Below(prof, batch[0].Deadline+nowSlack, floor) {
		t.Fatalf("premise: success %v against floor %v, S_memo %d and S_now %d should each alone rule the machine out", success, floor, memoSlack, nowSlack)
	}
	if st := newProbState(ctx, batch); st.tails[0] == nil {
		t.Errorf("the stale rule ruled out a machine on which the batch task reaches %v >= floor %v", success, floor)
	}
}
