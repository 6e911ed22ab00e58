package heuristics

import (
	"fmt"
	"math"
	"testing"

	"taskprune/internal/machine"
	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/pruner"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// sameBits reports whether two PMFs hold the same dense support with the
// same float bits in every slot.
func sameBits(a, b *pmf.PMF) bool {
	if a.Start() != b.Start() || a.Len() != b.Len() {
		return false
	}
	for t := a.Start(); t <= a.End(); t++ {
		if math.Float64bits(a.At(t)) != math.Float64bits(b.At(t)) {
			return false
		}
	}
	return true
}

// freshTail rebuilds machine mi's tail at the context's clock in a
// throwaway arena.
func freshTail(ctx *Context, mi int) *pmf.PMF {
	return ctx.Machines[mi].TailPMF(pmf.NewArena(), ctx.Now, ctx.PET, ctx.Mode, ctx.MaxImpulses, nil)
}

// lookupTail runs tailFor for machine mi at the context's clock in a fresh
// arena and reports whether it rebuilt the chain: a memo hit or a carried
// memo draws nothing from the arena.
func lookupTail(ctx *Context, mi int, batch []*task.Task) (tail *pmf.PMF, rebuilt bool) {
	ctx.Arena = pmf.NewArena()
	ctx.Cache.probed = false
	tail = ctx.Cache.tailFor(ctx, mi, ctx.Machines[mi], batch)
	return tail, ctx.Arena.HighWater() > 0
}

var memoModes = []pmf.DropMode{pmf.Evict, pmf.PendingDrop, pmf.NoDrop}

// carryStart is the tick carry fixtures build their memo and start their
// head at; carryHead is the head's task type.
const (
	carryStart = 1000
	carryHead  = task.Type(3)
)

// carryFixture returns a context of one machine, degraded by speed,
// holding three pending tasks and no head at carryStart, with its memo
// built there. The first pending task, which starts next, has the given
// deadline and banked progress.
func carryFixture(t *testing.T, matrix *pet.Matrix, mode pmf.DropMode, speed float64, headDeadline, consumed int64) *Context {
	t.Helper()
	m := machine.New(0, "m", mapEventQueueCap, 0)
	m.SetSpeed(speed)
	head := task.New(0, carryHead, 0, headDeadline)
	head.Consumed = consumed
	for _, tk := range []*task.Task{head, task.New(1, 7, 0, carryStart+300), task.New(2, 1, 0, carryStart+900)} {
		if err := m.Enqueue(tk); err != nil {
			t.Fatal(err)
		}
	}
	ctx := &Context{
		Now: carryStart, Machines: []*machine.Machine{m}, PET: matrix,
		Mode: mode, MaxImpulses: pmf.DefaultMaxImpulses, Cache: NewEvalCache(),
	}
	newProbState(ctx, nil)
	if ctx.Cache.memo[0].hasExec {
		t.Fatal("premise: the memo should be built with an idle head")
	}
	return ctx
}

// TestStartCarryOverIsExact: a memo built with an idle head at tick t is
// carried across StartNext at t without a rebuild, and it equals a fresh
// TailPMF bit for bit, at every clock up to the head's first possible
// completion, in every drop mode, on a nominal and a degraded machine, and
// with a head deadline past the head's support and inside it (where Evict
// collapses the late mass onto it). Past that completion the clock
// conditions the head and the tail is rebuilt. The carry must not apply to
// a head whose deadline is the start tick, to a head restored with banked
// progress, to a start after the build tick, or after a second mutation;
// there the tail is rebuilt and still equals a fresh one.
func TestStartCarryOverIsExact(t *testing.T) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	for _, mode := range memoModes {
		for _, speed := range []float64{1, 2} {
			first := matrix.Entry(carryHead, 0, speed, 0).PMF.Start()
			for _, deadline := range []int64{carryStart + 400, carryStart + first + 2} {
				for dt := int64(0); dt <= first+3; dt++ {
					ctx := carryFixture(t, matrix, mode, speed, deadline, 0)
					m := ctx.Machines[0]
					m.StartNext(carryStart)
					ctx.Now = carryStart + dt
					stamp := ctx.Cache.stamps[0]
					got, rebuilt := lookupTail(ctx, 0, nil)
					where := fmt.Sprintf("%v speed %v deadline start+%d, clock start+%d (first completion at +%d)", mode, speed, deadline-carryStart, dt, first)
					if want := dt > first; rebuilt != want {
						t.Errorf("%s: rebuilt %v, want %v", where, rebuilt, want)
					}
					if !sameBits(got, freshTail(ctx, 0)) {
						t.Errorf("%s: memo tail differs from a fresh TailPMF", where)
					}
					if ctx.Cache.stamps[0] == stamp {
						t.Errorf("%s: the stamp did not advance", where)
					}
					if e := &ctx.Cache.memo[0]; !e.hasExec || e.ver != m.Version() {
						t.Errorf("%s: memo not keyed to the started head", where)
					}
				}
			}
			for name, ctx := range map[string]*Context{
				"deadline at the start tick": carryFixture(t, matrix, mode, speed, carryStart, 0),
				"banked progress":            carryFixture(t, matrix, mode, speed, carryStart+400, 20),
				"start after the build tick": carryFixture(t, matrix, mode, speed, carryStart+400, 0),
				"second mutation":            carryFixture(t, matrix, mode, speed, carryStart+400, 0),
			} {
				m := ctx.Machines[0]
				if name == "start after the build tick" {
					ctx.Now = carryStart + 5
				}
				m.StartNext(ctx.Now)
				if name == "second mutation" {
					if err := m.Enqueue(task.New(9, 5, 0, carryStart+2000)); err != nil {
						t.Fatal(err)
					}
				}
				got, rebuilt := lookupTail(ctx, 0, nil)
				if !rebuilt {
					t.Errorf("%v speed %v, %s: the idle-head memo was carried across the start", mode, speed, name)
				}
				if !sameBits(got, freshTail(ctx, 0)) {
					t.Errorf("%v speed %v, %s: tail differs from a fresh TailPMF", mode, speed, name)
				}
			}
		}
	}
}

// TestWriteThroughIsExact: a commit to a machine that stays open writes
// the extended tail through into the memo at the new version, bit for bit
// the tail a fresh TailPMF gives, with its bound, so the next event at the
// same key reuses it without a rebuild. The commit that fills the machine
// writes nothing through.
func TestWriteThroughIsExact(t *testing.T) {
	matrix := pet.MustBuild(pet.SPECLikeMeans(), pet.DefaultBuildConfig(), stats.NewRNG(0x5EC))
	for _, mode := range memoModes {
		for _, speed := range []float64{1, 2} {
			ctx := &Context{
				Now: 2000, Machines: []*machine.Machine{machine.New(0, "m", 4, 0)}, PET: matrix,
				Mode: mode, MaxImpulses: pmf.DefaultMaxImpulses, Cache: NewEvalCache(),
				Arena: pmf.NewArena(), Pruner: pruner.New(pruner.DefaultConfig()),
			}
			m := ctx.Machines[0]
			m.SetSpeed(speed)
			for _, tk := range []*task.Task{task.New(0, 2, 0, 2600), task.New(1, 6, 0, 2400)} {
				if err := m.Enqueue(tk); err != nil {
					t.Fatal(err)
				}
			}
			m.StartNext(1950)
			batch := []*task.Task{task.New(10, 4, 0, 2500), task.New(11, 9, 0, 3400)}
			st := newProbState(ctx, batch)
			e := &ctx.Cache.memo[0]

			st.commit(ctx, batch[0], 0)
			if e.ver != m.Version() || st.tails[0] != &e.tail {
				t.Fatalf("%v speed %v: the commit did not write the tail through", mode, speed)
			}
			if !sameBits(&e.tail, freshTail(ctx, 0)) {
				t.Errorf("%v speed %v: written-through tail differs from a fresh TailPMF", mode, speed)
			}
			var want pmf.SuccessBound
			want.Set(&e.tail)
			if e.bound != want || st.bounds[0] != want {
				t.Errorf("%v speed %v: the memo's bound does not summarise its tail", mode, speed)
			}
			stamp := ctx.Cache.stamps[0]
			if got, rebuilt := lookupTail(ctx, 0, batch[1:]); rebuilt || got != &e.tail || ctx.Cache.stamps[0] != stamp {
				t.Errorf("%v speed %v: the next event at the same key rebuilt the tail (rebuilt %v)", mode, speed, rebuilt)
			}

			ver := e.ver
			st = newProbState(ctx, batch[1:])
			st.commit(ctx, batch[1], 0) // takes the last slot
			if len(st.open) != 0 || e.ver != ver {
				t.Errorf("%v speed %v: the filling commit wrote through (open %v)", mode, speed, st.open)
			}
		}
	}
}
