package heuristics

import (
	"testing"

	"taskprune/internal/machine"
	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/pruner"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// mapEvent is one mapping event on the pam-34k shape: eight SPEC machines
// with six-slot queues, each headed by an executing task, and a 38-task
// batch, that workload's mean batch size. A queue shape sets how deep each
// queue is: twoFree leaves every machine two free slots, oneFree fills
// every machine but one, which keeps one free slot, and allFull fills
// them all. Over 200,000 mm-34k arrivals, 54% of MM's mapping events found
// no machine with a free slot and 39% exactly one.
type mapEvent struct {
	ctx    *Context
	queued [][]*task.Task // per machine, head first
	batch  []*task.Task
	start  []int64 // per machine, the tick its head started
	// memoAt, when set, is per machine the tick reset builds its memo at,
	// before the clock, instead of the clock itself (clockMoved).
	memoAt []int64
}

const (
	mapEventNow      = 10_000
	mapEventQueued   = 4
	mapEventBatch    = 38
	mapEventQueueCap = 6
)

// A queue shape gives machine mi's queue depth out of n machines.
type queueShape func(mi, n int) int

func twoFree(int, int) int { return mapEventQueued }

func oneFree(mi, n int) int {
	if mi == n/2 {
		return mapEventQueueCap - 1
	}
	return mapEventQueueCap
}

func allFull(int, int) int { return mapEventQueueCap }

// newMapEvent builds the event. Batch deadlines leave slack drawn uniformly
// from [lo, hi)·grandMean ticks after the clock; queued tasks get generous
// deadlines so the tails carry the full queue.
func newMapEvent(matrix *pet.Matrix, lo, hi float64, shape queueShape) *mapEvent {
	rng := stats.NewRNG(34)
	grand := matrix.GrandMean()
	ev := &mapEvent{ctx: &Context{
		Now:         mapEventNow,
		Machines:    make([]*machine.Machine, matrix.NumMachines()),
		PET:         matrix,
		Mode:        pmf.Evict,
		MaxImpulses: pmf.DefaultMaxImpulses,
		Pruner:      pruner.New(pruner.DefaultConfig()),
		Arena:       pmf.NewArena(),
		Cache:       NewEvalCache(),
	}}
	id := 0
	for mi := range ev.ctx.Machines {
		ev.ctx.Machines[mi] = machine.New(mi, "m", mapEventQueueCap, 0)
		q := make([]*task.Task, shape(mi, len(ev.ctx.Machines)))
		for k := range q {
			q[k] = task.New(id, task.Type(rng.Intn(matrix.NumTypes())), 0, mapEventNow+int64(8*grand))
			id++
		}
		ev.queued = append(ev.queued, q)
		ev.start = append(ev.start, mapEventNow-20)
	}
	for range mapEventBatch {
		slack := int64(grand * rng.UniformRange(lo, hi))
		ev.batch = append(ev.batch, task.New(id, task.Type(rng.Intn(matrix.NumTypes())), 0, mapEventNow+slack))
		id++
	}
	ev.reset()
	return ev
}

// reset restores the event's state: every machine re-queues its tasks, the
// head started before the clock, and the batch is unmapped again.
// Machine.Reset bumps each queue version, so every cached evaluation of the
// previous run is stale; the open machines' tails are rebuilt into the
// cross-event memo here, leaving the timed Map with warm tails and cold
// evaluations, or with stale memos after clockMoved.
func (ev *mapEvent) reset() {
	for mi, m := range ev.ctx.Machines {
		m.Reset()
		for _, t := range ev.queued[mi] {
			if err := m.Enqueue(t); err != nil {
				panic(err)
			}
		}
		m.StartNext(ev.start[mi])
	}
	for _, t := range ev.batch {
		t.State, t.Machine, t.Defers = task.StatePending, -1, 0
	}
	ev.ctx.Arena.Reset()
	newProbState(ev.ctx, ev.batch)
	ev.restale()
}

// clockMoved starts each machine's head so that the clock sits one tick
// past the middle impulse of its execution PMF, and has reset build its
// memo at that impulse: every memo is then one key behind at the same
// version, which is how most pam-34k tail lookups that miss find it.
func (ev *mapEvent) clockMoved() *mapEvent {
	ev.memoAt = make([]int64, len(ev.ctx.Machines))
	for mi, q := range ev.queued {
		ticks, _ := ev.ctx.PET.Entry(q[0].Type, mi, 1, 0).PMF.Impulses()
		mid := ticks[len(ticks)/2]
		ev.start[mi] = mapEventNow - mid - 1
		ev.memoAt[mi] = ev.start[mi] + mid
	}
	ev.reset()
	return ev
}

// restale rebuilds every memo at its memoAt tick (nothing without
// clockMoved), leaving the clock where it was.
func (ev *mapEvent) restale() {
	c, now := ev.ctx.Cache, ev.ctx.Now
	for mi, at := range ev.memoAt {
		c.memo[mi].valid = false
		ev.ctx.Now = at
		c.tailFor(ev.ctx, mi, ev.ctx.Machines[mi], ev.batch)
	}
	ev.ctx.Now = now
	ev.ctx.Arena.Reset()
}

// run times h.Map on freshly reset state. One untimed event first grows
// the cache and arena to their steady-state sizes.
func (ev *mapEvent) run(b *testing.B, h Heuristic, check func(Result) bool) {
	b.ReportAllocs()
	h.Map(ev.ctx, ev.batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ev.reset()
		b.StartTimer()
		if res := h.Map(ev.ctx, ev.batch); !check(res) {
			b.Fatalf("unexpected mapping: %d assigned, %d deferred", len(res.Assigned), len(res.Deferred))
		}
	}
}

// undo takes a scalar event's commits back off their machines, leaving the
// queues as the event found them at a cost of a few nanoseconds. Only
// versions move, which no scalar heuristic reads.
func (ev *mapEvent) undo(res Result) {
	for _, t := range res.Assigned {
		ev.ctx.Machines[t.Machine].RemovePending(t)
		t.State, t.Machine = task.StatePending, -1
	}
}

// runScalar times h.Map for a scalar heuristic, undoing each event's
// commits inside the timed loop: a sub-microsecond event would otherwise
// spend its wall time in reset's stopped timer.
func (ev *mapEvent) runScalar(b *testing.B, h Heuristic, assigned int) {
	b.ReportAllocs()
	ev.undo(h.Map(ev.ctx, ev.batch))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := h.Map(ev.ctx, ev.batch)
		if len(res.Assigned) != assigned {
			b.Fatalf("assigned %d tasks, want %d", len(res.Assigned), assigned)
		}
		ev.undo(res)
	}
}

// BenchmarkPAMMapEvent times one PAM mapping event whose machine tails are
// memoized but whose phase-one evaluations are all stale, so every pair the
// bound keeps is evaluated afresh. all-deferred is the event that assigns
// nothing, as about two thirds of pam-34k's events do, with deadlines so
// tight that the tail's first tick already rules out most pairs.
// near-threshold gives the same batch more slack, so most pairs clear the
// first-tick bound yet fall short of the defer threshold: it assigns 2
// tasks, defers 36, and exercises the four-group bound. mixed maps some of
// the batch and defers the rest. clock-moved is all-deferred with every
// memo one key behind at the same version (clockMoved): the stale rule
// tests each memo's shifted bound instead of rebuilding its tail.
func BenchmarkPAMMapEvent(b *testing.B) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	b.Run("all-deferred", func(b *testing.B) {
		newMapEvent(matrix, 0.5, 3, twoFree).run(b, PAM{}, func(r Result) bool {
			return len(r.Assigned) == 0 && len(r.Deferred) == mapEventBatch
		})
	})
	b.Run("near-threshold", func(b *testing.B) {
		newMapEvent(matrix, 2, 5, twoFree).run(b, PAM{}, func(r Result) bool {
			return len(r.Assigned) == 2 && len(r.Deferred) == mapEventBatch-2
		})
	})
	b.Run("mixed", func(b *testing.B) {
		newMapEvent(matrix, 0.5, 8, twoFree).run(b, PAM{}, func(r Result) bool {
			return len(r.Assigned) > 0 && len(r.Deferred) > 0
		})
	})
	b.Run("clock-moved", func(b *testing.B) {
		newMapEvent(matrix, 0.5, 3, twoFree).clockMoved().run(b, PAM{}, func(r Result) bool {
			return len(r.Assigned) == 0 && len(r.Deferred) == mapEventBatch
		})
	})
}

// TestPAMMapEventAllocFree: once the cache and arena have grown, an
// all-deferred PAM mapping event — a tail summary per machine and a bound
// test per pair, which here rules out every pair — allocates nothing, and
// neither does the clock-moved one, whose stale rule tests every memo's
// shifted bound first. The events leave every queue as they found it, so
// they repeat without reset, whose re-queueing allocates; restale puts
// the clock-moved memos a key behind again.
func TestPAMMapEventAllocFree(t *testing.T) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	for name, ev := range map[string]*mapEvent{
		"all-deferred": newMapEvent(matrix, 0.5, 3, twoFree),
		"clock-moved":  newMapEvent(matrix, 0.5, 3, twoFree).clockMoved(),
	} {
		PAM{}.Map(ev.ctx, ev.batch)
		if n := testing.AllocsPerRun(50, func() {
			ev.restale()
			if r := (PAM{}).Map(ev.ctx, ev.batch); len(r.Assigned) != 0 || len(r.Deferred) != mapEventBatch {
				t.Fatalf("%s: event assigned %d and deferred %d, want 0 and %d", name, len(r.Assigned), len(r.Deferred), mapEventBatch)
			}
		}); n != 0 {
			t.Errorf("%s PAM mapping event allocates %.1f objects, want 0", name, n)
		}
	}
}

// TestClockMovedEventSkipsRebuilds: the clock-moved event's premise holds
// (every memo is one key behind at the current version) and the stale rule
// rules out most machines, so the event rebuilds few tails.
func TestClockMovedEventSkipsRebuilds(t *testing.T) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	ev := newMapEvent(matrix, 0.5, 3, twoFree).clockMoved()
	c := ev.ctx.Cache
	for mi, m := range ev.ctx.Machines {
		_, exec, origin := m.Head(ev.ctx.PET)
		key, _ := exec.FirstImpulseAt(ev.ctx.Now - origin)
		if e := &c.memo[mi]; !e.valid || e.ver != m.Version() || e.key >= key {
			t.Fatalf("machine %d: memo key %d at version %d, current key %d at %d; want one key behind", mi, e.key, e.ver, key, m.Version())
		}
	}
	stamps := append([]uint64(nil), c.stamps...)
	st := newProbState(ev.ctx, ev.batch)
	ruledOut := 0
	for mi := range ev.ctx.Machines {
		if st.tails[mi] == nil {
			ruledOut++
			if c.stamps[mi] != stamps[mi] {
				t.Errorf("machine %d: ruled out, but its stamp moved", mi)
			}
		}
	}
	t.Logf("the stale rule ruled out %d of %d machines", ruledOut, len(ev.ctx.Machines))
	if ruledOut < len(ev.ctx.Machines)/2 {
		t.Errorf("the stale rule ruled out %d of %d machines, want at least half", ruledOut, len(ev.ctx.Machines))
	}
}

// BenchmarkMMMapEvent times one MM mapping event on the same state: MM
// prices each (task, open machine) pair by expected completion time, the
// machine's ExpectedReady plus the task's profiled mean, and reads no tail
// and never defers. two-free fills all sixteen free slots (reset between
// events); one-free and full are the shapes most mm-34k events see, with
// one commit, undone in the timed loop, and none.
func BenchmarkMMMapEvent(b *testing.B) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	b.Run("two-free", func(b *testing.B) {
		free := matrix.NumMachines() * (mapEventQueueCap - mapEventQueued)
		newMapEvent(matrix, 0.5, 8, twoFree).run(b, MM{}, func(r Result) bool {
			return len(r.Assigned) == free && len(r.Deferred) == 0
		})
	})
	b.Run("one-free", func(b *testing.B) {
		newMapEvent(matrix, 0.5, 8, oneFree).runScalar(b, MM{}, 1)
	})
	b.Run("full", func(b *testing.B) {
		newMapEvent(matrix, 0.5, 8, allFull).runScalar(b, MM{}, 0)
	})
}

// TestMMMapEventAllocFree: once the cache has grown, the one-free MM event
// — the list of open machines, one ExpectedReady and one commit — allocates
// nothing.
func TestMMMapEventAllocFree(t *testing.T) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	ev := newMapEvent(matrix, 0.5, 8, oneFree)
	ev.undo(MM{}.Map(ev.ctx, ev.batch))
	if n := testing.AllocsPerRun(50, func() {
		r := MM{}.Map(ev.ctx, ev.batch)
		if len(r.Assigned) != 1 {
			t.Fatalf("event assigned %d tasks, want 1", len(r.Assigned))
		}
		ev.undo(r)
	}); n != 0 {
		t.Errorf("one-free MM mapping event allocates %.1f objects, want 0", n)
	}
}

// BenchmarkMOCMapEvent times one MOC mapping event: phase one by
// robustness with the culling bound, the three-pair permutation search and
// a commit per round. two-free maps onto every machine; one-free evaluates
// the batch on the single open machine and commits once.
func BenchmarkMOCMapEvent(b *testing.B) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	moc := NewMOC(DefaultMOCThreshold)
	b.Run("two-free", func(b *testing.B) {
		newMapEvent(matrix, 0.5, 8, twoFree).run(b, moc, func(r Result) bool {
			return len(r.Assigned) > 0 && len(r.Culled) > 0
		})
	})
	b.Run("one-free", func(b *testing.B) {
		newMapEvent(matrix, 0.5, 8, oneFree).run(b, moc, func(r Result) bool {
			return len(r.Assigned) == 1
		})
	})
}
