package eventq

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Errorf("Len = %d, want 0", q.Len())
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue returned ok")
	}
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty queue returned ok")
	}
}

func TestPopOrder(t *testing.T) {
	var q Queue
	q.Push(Event{Tick: 30, Kind: Completion, Machine: 1})
	q.Push(Event{Tick: 10, Kind: Fleet, TaskID: 5})
	q.Push(Event{Tick: 20, Kind: Fleet, TaskID: 6})
	var ticks []int64
	for {
		e, ok := q.Pop()
		if !ok {
			break
		}
		ticks = append(ticks, e.Tick)
	}
	want := []int64{10, 20, 30}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", ticks, want)
		}
	}
}

func TestTieBreaksByInsertionOrder(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(Event{Tick: 5, Kind: Completion, TaskID: i})
	}
	for i := 0; i < 10; i++ {
		e, ok := q.Pop()
		if !ok || e.TaskID != i {
			t.Fatalf("tie order broken at %d: got task %d", i, e.TaskID)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.Push(Event{Tick: 1, TaskID: 42})
	e, ok := q.Peek()
	if !ok || e.TaskID != 42 {
		t.Fatalf("Peek = (%+v, %v)", e, ok)
	}
	if q.Len() != 1 {
		t.Errorf("Len after Peek = %d, want 1", q.Len())
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q Queue
	q.Push(Event{Tick: 10})
	q.Push(Event{Tick: 5})
	if e, _ := q.Pop(); e.Tick != 5 {
		t.Fatalf("first pop = %d, want 5", e.Tick)
	}
	q.Push(Event{Tick: 1})
	if e, _ := q.Pop(); e.Tick != 1 {
		t.Fatalf("second pop = %d, want 1", e.Tick)
	}
	if e, _ := q.Pop(); e.Tick != 10 {
		t.Fatalf("third pop = %d, want 10", e.Tick)
	}
}

// Property: popping always yields events in non-decreasing tick order, with
// ties in insertion order.
func TestPropHeapOrdering(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var q Queue
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			q.Push(Event{Tick: int64(r.Intn(20)), TaskID: i})
		}
		lastTick := int64(-1)
		lastID := -1
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			if e.Tick < lastTick {
				return false
			}
			if e.Tick == lastTick && e.TaskID < lastID {
				return false // violated FIFO within a tick
			}
			lastTick, lastID = e.Tick, e.TaskID
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkEventQueue times one Pop and one Push at a steady depth: the
// simulator keeps about one completion per busy machine queued (8 on the
// paper's fleet, 32 on a large one), pops the earliest and schedules the
// next run's completion a little later.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{8, 32} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			gaps := make([]int64, 1024)
			for i := range gaps {
				gaps[i] = 1 + r.Int63n(200)
			}
			var q Queue
			for i := 0; i < depth; i++ {
				q.Push(Event{Tick: gaps[i], Kind: Completion, TaskID: i, Machine: i})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, _ := q.Pop()
				e.Tick += gaps[i%len(gaps)]
				q.Push(e)
			}
		})
	}
}
