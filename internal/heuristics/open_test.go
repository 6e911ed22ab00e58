package heuristics

import (
	"fmt"
	"math"
	"testing"

	"taskprune/internal/machine"
	"taskprune/internal/pet"
	"taskprune/internal/pruner"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// refScalarMap is the eager MM, MSD and MMU mapping loop that the list of
// open machines replaced, kept as their reference: it prices every
// machine's ExpectedReady up front, loops while any slot is free, and
// tests FreeSlots for every (task, machine) pair. The three heuristics
// differ only in phase two's pick, which the switch keeps verbatim.
func refScalarMap(name string, ctx *Context, batch []*task.Task) []*task.Task {
	ready := make([]float64, len(ctx.Machines))
	for i, m := range ctx.Machines {
		ready[i] = m.ExpectedReady(ctx.Now, ctx.PET)
	}
	totalFreeSlots := func() int {
		n := 0
		for _, m := range ctx.Machines {
			n += m.FreeSlots()
		}
		return n
	}
	bestMachine := func(t *task.Task) (mi int, ect float64, ok bool) {
		best := -1
		var bestECT float64
		for i, m := range ctx.Machines {
			if m.FreeSlots() <= 0 {
				continue
			}
			e := ready[i] + ctx.entry(t, i).Prof.Mean()
			if best == -1 || e < bestECT {
				best, bestECT = i, e
			}
		}
		if best == -1 {
			return 0, 0, false
		}
		return best, bestECT, true
	}
	remaining := append([]*task.Task(nil), batch...)
	var assigned []*task.Task
	for totalFreeSlots() > 0 && len(remaining) > 0 {
		bestIdx, bestMi := -1, -1
		bestECT, bestDeadline, bestUrgency := math.Inf(1), int64(math.MaxInt64), math.Inf(-1)
		for i, t := range remaining {
			mi, ect, ok := bestMachine(t)
			if !ok {
				break
			}
			switch name {
			case "MM":
				if ect < bestECT {
					bestIdx, bestMi, bestECT = i, mi, ect
				}
			case "MSD":
				if t.Deadline < bestDeadline || (t.Deadline == bestDeadline && ect < bestECT) {
					bestIdx, bestMi, bestDeadline, bestECT = i, mi, t.Deadline, ect
				}
			case "MMU":
				slack := float64(t.Deadline) - ect
				urgency := math.Inf(1)
				if slack > 0 {
					urgency = 1 / slack
				}
				if urgency > bestUrgency {
					bestIdx, bestMi, bestUrgency = i, mi, urgency
				}
			}
		}
		if bestIdx == -1 {
			break
		}
		t := remaining[bestIdx]
		if err := ctx.Machines[bestMi].Enqueue(t); err != nil {
			panic(err)
		}
		ready[bestMi] += ctx.entry(t, bestMi).Prof.Mean()
		assigned = append(assigned, t)
		remaining = removeTask(remaining, bestIdx)
	}
	return assigned
}

const drawNow = 5_000

// drawEvent builds one random mapping event on the SPEC fleet from seed:
// eight machines whose queues hold from nothing to all six slots (heads
// started up to 300 ticks ago, some overdue, some queues idle), some
// machines failed, some degraded before or during their head's run, and
// a batch of 0–40 tasks; a fifth of all tasks are restored from a
// checkpoint (Consumed > 0). open picks the fleet's shape: 0 leaves every
// alive machine full, 1 exactly one machine open, and anything else draws
// each queue independently. The same seed always builds the same event.
func drawEvent(matrix *pet.Matrix, seed int64, open int) ([]*machine.Machine, []*task.Task) {
	rng := stats.NewRNG(seed)
	speeds := []float64{1.5, 2, 3}
	consumed := []int64{20, 40, 80}
	id := 0
	newTask := func(slack int) *task.Task {
		t := task.New(id, task.Type(rng.Intn(matrix.NumTypes())), 0, drawNow+1+int64(rng.Intn(slack)))
		if rng.Float64() < 0.2 {
			t.Consumed = consumed[rng.Intn(len(consumed))]
		}
		id++
		return t
	}
	ms := make([]*machine.Machine, matrix.NumMachines())
	only := rng.Intn(len(ms))
	for mi := range ms {
		m := machine.New(mi, "m", mapEventQueueCap, 0)
		ms[mi] = m
		if rng.Float64() < 0.2 {
			m.SetSpeed(speeds[rng.Intn(len(speeds))])
		}
		depth := rng.Intn(mapEventQueueCap + 1)
		switch {
		case open == 0 || (open == 1 && mi != only):
			depth = mapEventQueueCap
		case open == 1:
			depth = rng.Intn(mapEventQueueCap)
		}
		for range depth {
			if err := m.Enqueue(newTask(3000)); err != nil {
				panic(err)
			}
		}
		if depth > 0 && rng.Float64() < 0.8 {
			m.StartNext(drawNow - int64(rng.Intn(300)))
		}
		if rng.Float64() < 0.1 {
			m.SetSpeed(speeds[rng.Intn(len(speeds))])
		}
		if (open != 1 || mi != only) && rng.Float64() < 0.1 {
			m.Fail(drawNow)
		}
	}
	batch := make([]*task.Task, rng.Intn(41))
	for i := range batch {
		batch[i] = newTask(1500)
	}
	return ms, batch
}

// mapRecovering runs h.Map, turning a panic (a commit to a full machine)
// into an error.
func mapRecovering(h Heuristic, ctx *Context, batch []*task.Task) (res Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return h.Map(ctx, batch), nil
}

// TestScalarMappersMatchEagerReference: on random fleets and batches, MM,
// MSD and MMU — which price, scan and commit to open machines only — assign
// the same tasks to the same machines in the same order as the eager
// reference loop. Each event is built twice from its seed, once per side.
// The draws must include events with no open machine, with exactly one,
// with several, with an empty batch, and with a commit that fills a
// machine while the event goes on to assign more tasks.
func TestScalarMappersMatchEagerReference(t *testing.T) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	for _, name := range []string{"MM", "MSD", "MMU"} {
		h, _ := New(name)
		cache := NewEvalCache() // shared by every draw, as a trial shares it across events
		var none, one, several, empty, filledMidEvent int
		for d := range 400 {
			seed := int64(1000*d + 7)
			refFleet, refBatch := drawEvent(matrix, seed, d%4)
			want := refScalarMap(name, &Context{Now: drawNow, Machines: refFleet, PET: matrix}, refBatch)

			fleet, batch := drawEvent(matrix, seed, d%4)
			free := make([]int, len(fleet))
			open := 0
			for i, m := range fleet {
				if free[i] = m.FreeSlots(); free[i] > 0 {
					open++
				}
			}
			ctx := &Context{Now: drawNow, Machines: fleet, PET: matrix, Cache: cache}
			if d%5 == 0 {
				ctx.Cache = nil
			}
			res, err := mapRecovering(h, ctx, batch)
			if err != nil {
				t.Fatalf("%s draw %d: %v", name, d, err)
			}
			if len(res.Assigned) != len(want) {
				t.Fatalf("%s draw %d: assigned %d tasks, reference %d", name, d, len(res.Assigned), len(want))
			}
			for k, got := range res.Assigned {
				if got.ID != want[k].ID || got.Machine != want[k].Machine {
					t.Fatalf("%s draw %d: commit %d is task %d on machine %d, reference task %d on machine %d",
						name, d, k, got.ID, got.Machine, want[k].ID, want[k].Machine)
				}
			}

			switch {
			case open == 0:
				none++
			case open == 1:
				one++
			default:
				several++
			}
			if len(batch) == 0 {
				empty++
			}
			for k, got := range res.Assigned {
				if free[got.Machine]--; free[got.Machine] == 0 && k < len(res.Assigned)-1 {
					filledMidEvent++
					break
				}
			}
		}
		if none == 0 || one == 0 || several == 0 || empty == 0 || filledMidEvent == 0 {
			t.Errorf("%s: premise draws: %d with no open machine, %d with one, %d with several, %d empty batches, %d fills mid-event; want each > 0",
				name, none, one, several, empty, filledMidEvent)
		}
	}
}

// TestFullMachineBuildsNoTail: PAM, PAMF and MOC never rebuild a full
// machine's tail, cached or naive. On a fresh cache the full machine's
// memo stays invalid and its stamp stays 0 while the open machine's tail
// is built, and an empty batch builds nothing at all.
func TestFullMachineBuildsNoTail(t *testing.T) {
	matrix := testPET(t)
	for _, name := range []string{"PAM", "PAMF", "MOC"} {
		for _, naive := range []bool{false, true} {
			h, _ := New(name)
			ctx := pamContext(t, matrix, 2)
			ctx.Cache = NewEvalCache()
			ctx.NaiveEval = naive
			if name == "PAMF" {
				ctx.Fairness = pruner.NewFairnessTracker(matrix.NumTypes(), 0.25)
			}
			full := ctx.Machines[1]
			for i := range 2 {
				if err := full.Enqueue(mkTask(100+i, 1, 0, 1000)); err != nil {
					t.Fatal(err)
				}
			}
			full.StartNext(0)

			if res := h.Map(ctx, nil); len(res.Assigned)+len(res.Deferred)+len(res.Culled) != 0 || len(ctx.Cache.stamps) != 0 {
				t.Errorf("%s naive=%v: an empty batch built state for %d machines", name, naive, len(ctx.Cache.stamps))
			}
			batch := []*task.Task{mkTask(0, 0, 0, 1000), mkTask(1, 1, 0, 1000), mkTask(2, 0, 0, 2000)}
			res := h.Map(ctx, batch)
			if len(res.Assigned) != 2 || ctx.Machines[0].FreeSlots() != 0 {
				t.Fatalf("%s naive=%v: assigned %d, want the open machine filled with 2", name, naive, len(res.Assigned))
			}
			c := ctx.Cache
			if c.memo[1].valid || c.stamps[1] != 0 {
				t.Errorf("%s naive=%v: full machine's memo valid=%v stamp=%d, want invalid and 0", name, naive, c.memo[1].valid, c.stamps[1])
			}
			if c.stamps[0] == 0 {
				t.Errorf("%s naive=%v: the open machine's tail was not built", name, naive)
			}
		}
	}
}

// TestReopenedMachineReevaluates: an evaluation cached while machine 0 was
// open is not served after the machine filled, sat out one event with its
// memo and stamp untouched, and reopened when its head completed. The
// completion bumped the queue version, so the memo misses, the stamp
// advances and the evaluation is recomputed against the new tail.
func TestReopenedMachineReevaluates(t *testing.T) {
	matrix := testPET(t)
	ctx := pamContext(t, matrix, 2)
	ctx.Cache = NewEvalCache()
	m0 := ctx.Machines[0]
	if err := m0.Enqueue(mkTask(100, 0, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	m0.StartNext(0)
	probe := mkTask(0, 0, 0, 40)
	before := newProbState(ctx, []*task.Task{probe}).evaluate(ctx, probe, 0)

	// Machine 0 fills and sits out an event that maps onto machine 1.
	if err := m0.Enqueue(mkTask(101, 0, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	ctx.Now = 5
	stamp, memoVer := ctx.Cache.stamps[0], ctx.Cache.memo[0].ver
	if res := (PAM{}).Map(ctx, []*task.Task{mkTask(1, 1, 0, 1000)}); len(res.Assigned) != 1 || res.Assigned[0].Machine != 1 {
		t.Fatalf("premise: the middle event should map its task onto machine 1, got %v", res.Assigned)
	}
	if ctx.Cache.stamps[0] != stamp || ctx.Cache.memo[0].ver != memoVer {
		t.Fatal("the event touched the full machine's memo or stamp")
	}

	// The head completes and the next task starts: one slot opens.
	ctx.Now = 15
	m0.FinishExecuting(15)
	m0.StartNext(15)
	misses := ctx.Cache.Misses()
	st := newProbState(ctx, []*task.Task{probe})
	after := st.evaluate(ctx, probe, 0)
	if ctx.Cache.Misses() != misses+1 {
		t.Fatal("the reopened machine's evaluation was served from the cache")
	}
	if fresh := st.compute(ctx, probe, 0); after != fresh {
		t.Errorf("evaluation %+v, fresh %+v", after, fresh)
	}
	if after == before {
		t.Error("premise: the queue change should move the evaluation")
	}
}
