package eventq

import (
	"math/rand"
	"testing"
)

// TestPropertyRandomInterleavings drives the queue with random interleaved
// pushes and pops — arrivals, completions, and fleet events with heavy tick
// collisions — and checks it against a brute-force reference model: pops
// come out in nondecreasing tick order, and ties pop in exact insertion
// order. Pushes never go below the last popped tick, mirroring how the
// simulator only schedules into the future.
func TestPropertyRandomInterleavings(t *testing.T) {
	type ref struct {
		tick int64
		seq  int
		ev   Event
	}
	kinds := []Kind{Completion, Fleet}
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var q Queue
		var model []ref
		seq := 0
		lastPopped := int64(0)
		popOne := func() {
			e, ok := q.Pop()
			if len(model) == 0 {
				if ok {
					t.Fatalf("trial %d: Pop returned %v from an empty queue", trial, e)
				}
				return
			}
			if !ok {
				t.Fatalf("trial %d: Pop empty with %d events pending", trial, len(model))
			}
			// Reference pop: minimum (tick, seq).
			best := 0
			for i := 1; i < len(model); i++ {
				if model[i].tick < model[best].tick ||
					(model[i].tick == model[best].tick && model[i].seq < model[best].seq) {
					best = i
				}
			}
			want := model[best]
			model = append(model[:best], model[best+1:]...)
			if e.Tick != want.ev.Tick || e.Kind != want.ev.Kind || e.TaskID != want.ev.TaskID || e.Machine != want.ev.Machine {
				t.Fatalf("trial %d: popped %+v, reference says %+v", trial, e, want.ev)
			}
			if e.Tick < lastPopped {
				t.Fatalf("trial %d: time went backwards: %d after %d", trial, e.Tick, lastPopped)
			}
			lastPopped = e.Tick
		}
		for step := 0; step < 300; step++ {
			if rng.Intn(3) < 2 || q.Len() == 0 { // bias toward pushes, pop when possible
				// Small tick range on top of lastPopped forces many ties.
				ev := Event{
					Tick:    lastPopped + int64(rng.Intn(6)),
					Kind:    kinds[rng.Intn(len(kinds))],
					TaskID:  seq,
					Machine: rng.Intn(4),
				}
				q.Push(ev)
				model = append(model, ref{tick: ev.Tick, seq: seq, ev: ev})
				seq++
			} else {
				popOne()
			}
		}
		for q.Len() > 0 || len(model) > 0 {
			popOne()
		}
		if _, ok := q.Pop(); ok {
			t.Fatalf("trial %d: drained queue still pops", trial)
		}
	}
}

// TestPeekMatchesPop: Peek must preview exactly what Pop returns.
func TestPeekMatchesPop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q Queue
	for i := 0; i < 100; i++ {
		q.Push(Event{Tick: int64(rng.Intn(20)), Kind: Fleet, TaskID: i})
	}
	for q.Len() > 0 {
		peeked, ok := q.Peek()
		if !ok {
			t.Fatal("Peek failed on non-empty queue")
		}
		popped, _ := q.Pop()
		// Compare the public identity only: the heap's internal bookkeeping
		// fields legitimately differ between the two copies.
		if peeked.Tick != popped.Tick || peeked.Kind != popped.Kind ||
			peeked.TaskID != popped.TaskID || peeked.Machine != popped.Machine {
			t.Fatalf("Peek %+v != Pop %+v", peeked, popped)
		}
	}
}
