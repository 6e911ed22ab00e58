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
// with a six-slot queue holding four tasks each (one executing) and a
// 38-task batch, that workload's mean batch size.
type mapEvent struct {
	ctx    *Context
	queued [][]*task.Task // per machine, head first
	batch  []*task.Task
}

const (
	mapEventNow      = 10_000
	mapEventQueued   = 4
	mapEventBatch    = 38
	mapEventQueueCap = 6
)

// newMapEvent builds the event. Batch deadlines leave slack drawn uniformly
// from [lo, hi)·grandMean ticks after the clock; queued tasks get generous
// deadlines so the tails carry the full queue.
func newMapEvent(matrix *pet.Matrix, lo, hi float64) *mapEvent {
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
		q := make([]*task.Task, mapEventQueued)
		for k := range q {
			q[k] = task.New(id, task.Type(rng.Intn(matrix.NumTypes())), 0, mapEventNow+int64(8*grand))
			id++
		}
		ev.queued = append(ev.queued, q)
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
// head started a little before the clock, and the batch is unmapped again.
// Machine.Reset bumps each queue version, so every cached evaluation of the
// previous run is stale; the tails are rebuilt into the cross-event memo
// here, leaving the timed Map with warm tails and cold evaluations.
func (ev *mapEvent) reset() {
	for mi, m := range ev.ctx.Machines {
		m.Reset()
		for _, t := range ev.queued[mi] {
			if err := m.Enqueue(t); err != nil {
				panic(err)
			}
		}
		m.StartNext(mapEventNow - 20)
	}
	for _, t := range ev.batch {
		t.State, t.Machine, t.Defers = task.StatePending, -1, 0
	}
	ev.ctx.Arena.Reset()
	newProbState(ev.ctx)
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

// BenchmarkPAMMapEvent times one PAM mapping event whose machine tails are
// memoized but whose phase-one evaluations are all stale, so every pair the
// bound keeps is evaluated afresh. all-deferred is the event that assigns
// nothing, as about two thirds of pam-34k's events do, with deadlines so
// tight that the tail's first tick already rules out most pairs.
// near-threshold gives the same batch more slack, so most pairs clear the
// first-tick bound yet fall short of the defer threshold: it assigns 2
// tasks, defers 36, and exercises the four-group bound. mixed maps some of
// the batch and defers the rest.
func BenchmarkPAMMapEvent(b *testing.B) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	b.Run("all-deferred", func(b *testing.B) {
		newMapEvent(matrix, 0.5, 3).run(b, PAM{}, func(r Result) bool {
			return len(r.Assigned) == 0 && len(r.Deferred) == mapEventBatch
		})
	})
	b.Run("near-threshold", func(b *testing.B) {
		newMapEvent(matrix, 2, 5).run(b, PAM{}, func(r Result) bool {
			return len(r.Assigned) == 2 && len(r.Deferred) == mapEventBatch-2
		})
	})
	b.Run("mixed", func(b *testing.B) {
		newMapEvent(matrix, 0.5, 8).run(b, PAM{}, func(r Result) bool {
			return len(r.Assigned) > 0 && len(r.Deferred) > 0
		})
	})
}

// TestPAMMapEventAllocFree: once the cache and arena have grown, an
// all-deferred PAM mapping event — a tail summary per machine and a bound
// test per pair, which here rules out every pair — allocates nothing. The
// event leaves every queue as it found it, so it repeats without reset,
// whose re-queueing allocates.
func TestPAMMapEventAllocFree(t *testing.T) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	ev := newMapEvent(matrix, 0.5, 3)
	PAM{}.Map(ev.ctx, ev.batch)
	if n := testing.AllocsPerRun(50, func() {
		ev.ctx.Arena.Reset()
		if r := (PAM{}).Map(ev.ctx, ev.batch); len(r.Assigned) != 0 || len(r.Deferred) != mapEventBatch {
			t.Fatalf("event assigned %d and deferred %d, want 0 and %d", len(r.Assigned), len(r.Deferred), mapEventBatch)
		}
	}); n != 0 {
		t.Errorf("all-deferred PAM mapping event allocates %.1f objects, want 0", n)
	}
}

// BenchmarkMMMapEvent times one MM mapping event on the same state: MM
// prices every (task, machine) pair by expected completion time, the
// machine's ExpectedReady plus the task's profiled mean, and fills all
// sixteen free slots. It reads no tail and never defers.
func BenchmarkMMMapEvent(b *testing.B) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	free := matrix.NumMachines() * (mapEventQueueCap - mapEventQueued)
	newMapEvent(matrix, 0.5, 8).run(b, MM{}, func(r Result) bool {
		return len(r.Assigned) == free && len(r.Deferred) == 0
	})
}
