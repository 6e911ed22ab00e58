package metrics

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"taskprune/internal/task"
)

// randomExits builds a synthetic exit sequence with non-decreasing finish
// ticks (the order the simulator emits exits), dense tie groups, and a mix
// of every terminal state.
func randomExits(r *rand.Rand, n, nTypes int) []*task.Task {
	states := []task.State{task.StateCompleted, task.StateMissed, task.StateDropped, task.StateApprox}
	out := make([]*task.Task, n)
	finish := int64(0)
	ids := r.Perm(n) // exit order decoupled from ID order, as in real trials
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			finish += int64(r.Intn(5))
		}
		out[i] = &task.Task{
			ID:     ids[i],
			Type:   task.Type(r.Intn(nTypes)),
			Finish: finish,
			State:  states[r.Intn(len(states))],
			Defers: r.Intn(4),
		}
	}
	return out
}

// descendingTieExits builds runs of same-tick exits whose IDs descend
// within each run, so nearly every exit ties its predecessor's tick and
// ranks below it.
func descendingTieExits(r *rand.Rand, n, nTypes int) []*task.Task {
	out := randomExits(r, n, nTypes)
	finish, id := int64(0), n
	for i := 0; i < n; {
		run := 1 + r.Intn(8)
		finish += int64(1 + r.Intn(3))
		for k := 0; k < run && i < n; k, i = k+1, i+1 {
			id--
			out[i].Finish, out[i].ID = finish, id
		}
	}
	return out
}

// stepBackExits builds exits whose finish ticks now and then step back, as
// in a cluster aggregate: one datacenter's end-of-trial flush jumps its
// clock to a late deadline, then another datacenter's exits land earlier.
func stepBackExits(r *rand.Rand, n, nTypes int) []*task.Task {
	out := randomExits(r, n, nTypes)
	finish := int64(0)
	for i := range out {
		switch r.Intn(10) {
		case 0:
			finish += int64(r.Intn(40))
		case 1:
			finish -= int64(r.Intn(40))
		default:
			finish += int64(r.Intn(2))
		}
		out[i].Finish = finish
	}
	return out
}

// TestStreamMatchesCollect: the streaming collector must return exactly
// what Collect computes from the materialized exit list — same trimming,
// same tie-breaks, same clamping on tiny trials — across random exit
// sequences, tie-heavy and out-of-order ones, trial sizes around the trim
// boundaries, and costs.
func TestStreamMatchesCollect(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	sizes := []int{0, 1, 2, 3, 5, 10, 99, 100, 150, 199, 200, 201, 250, 400, 1000}
	gens := []struct {
		name string
		gen  func(*rand.Rand, int, int) []*task.Task
	}{{"random", randomExits}, {"descending-ties", descendingTieExits}, {"step-back", stepBackExits}}
	for _, g := range gens {
		for _, trim := range []int{0, 1, 3, 100} {
			for _, n := range sizes {
				for rep := 0; rep < 3; rep++ {
					exits := g.gen(r, n, 5)
					cost := float64(r.Intn(100)) / 7
					want := Collect(exits, 5, trim, cost)
					s := NewStream(5, trim)
					for _, tk := range exits {
						s.Observe(tk)
					}
					got := s.Finalize(cost)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s trim=%d n=%d rep=%d: stream stats diverge from Collect\nwant %+v\ngot  %+v",
							g.name, trim, n, rep, want, got)
					}
					ref := sortedRecs(exits)
					k := min(trim, n)
					if head := inOrder(&s.head); !reflect.DeepEqual(head, ref[:k]) {
						t.Fatalf("%s trim=%d n=%d rep=%d: head window %v, want %v", g.name, trim, n, rep, head, ref[:k])
					}
					if tail := inOrder(&s.tail); !reflect.DeepEqual(tail, ref[n-k:]) {
						t.Fatalf("%s trim=%d n=%d rep=%d: tail window %v, want %v", g.name, trim, n, rep, tail, ref[n-k:])
					}
				}
			}
		}
	}
}

// sortedRecs is the sort-based reference for the windows: every exit's
// record in (finish, ID) order.
func sortedRecs(exits []*task.Task) []exitRec {
	recs := make([]exitRec, len(exits))
	for i, t := range exits {
		recs[i] = exitRec{finish: t.Finish, id: t.ID, typ: t.Type, state: t.State, defers: t.Defers}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].before(recs[j]) })
	return recs
}

// inOrder lists a window's records in its ascending order.
func inOrder(w *window) []exitRec {
	out := make([]exitRec, len(w.recs))
	for pos := range out {
		out[pos] = w.recs[w.slot(pos)]
	}
	return out
}

// TestStreamNegativeTrim mirrors Collect's trim<0 clamp.
func TestStreamNegativeTrim(t *testing.T) {
	exits := randomExits(rand.New(rand.NewSource(5)), 30, 3)
	want := Collect(exits, 3, -7, 0)
	s := NewStream(3, -7)
	for _, tk := range exits {
		s.Observe(tk)
	}
	if got := s.Finalize(0); !reflect.DeepEqual(want, got) {
		t.Fatalf("negative trim: want %+v got %+v", want, got)
	}
}

// TestStreamPanicsOnUnfinished mirrors Collect's invariant that only
// terminal-state tasks may appear in the exit stream.
func TestStreamPanicsOnUnfinished(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Observe accepted a pending task")
		}
	}()
	NewStream(1, 0).Observe(&task.Task{State: task.StatePending})
}

// TestStreamTotal: Total tracks observations as they stream in.
func TestStreamTotal(t *testing.T) {
	s := NewStream(2, 10)
	for i := 0; i < 7; i++ {
		s.Observe(&task.Task{ID: i, Finish: int64(i), State: task.StateCompleted})
		if s.Total() != i+1 {
			t.Fatalf("Total = %d after %d observations", s.Total(), i+1)
		}
	}
}

// TestStreamCounts: the raw exit tallies (the daemon's live status
// surface) must track every terminal state exactly, independent of the
// trimmed-window statistics.
func TestStreamCounts(t *testing.T) {
	s := NewStream(2, 10)
	if (s.Counts() != Counts{}) {
		t.Fatalf("fresh stream counts = %+v, want zero", s.Counts())
	}
	exits := []struct {
		state task.State
		want  Counts
	}{
		{task.StateCompleted, Counts{Total: 1, Completed: 1}},
		{task.StateMissed, Counts{Total: 2, Completed: 1, Missed: 1}},
		{task.StateDropped, Counts{Total: 3, Completed: 1, Missed: 1, Dropped: 1}},
		{task.StateApprox, Counts{Total: 4, Completed: 1, Missed: 1, Dropped: 1, Approx: 1}},
		{task.StateCompleted, Counts{Total: 5, Completed: 2, Missed: 1, Dropped: 1, Approx: 1}},
	}
	for i, e := range exits {
		s.Observe(&task.Task{ID: i, Finish: int64(i), State: e.state})
		if got := s.Counts(); got != e.want {
			t.Fatalf("after exit %d (%v): counts = %+v, want %+v", i, e.state, got, e.want)
		}
	}
}

// TestStreamShareConcurrentObserve: a shared stream fed the same exits
// from several goroutines at once, in interleaved order, finalizes to what
// sequential observation does.
func TestStreamShareConcurrentObserve(t *testing.T) {
	const workers = 4
	exits := randomExits(rand.New(rand.NewSource(17)), 1000, 5)
	seq := NewStream(5, 100)
	for _, tk := range exits {
		seq.Observe(tk)
	}
	shared := NewStream(5, 100).Share()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(exits); i += workers {
				shared.Observe(exits[i])
			}
		}()
	}
	wg.Wait()
	if want, got := seq.Finalize(3), shared.Finalize(3); !reflect.DeepEqual(want, got) {
		t.Fatalf("shared stream diverges from sequential observation\nwant %+v\ngot  %+v", want, got)
	}
}

// BenchmarkStreamObserve times one exit folded into a stream at the
// default trim once both windows are full: in-order exits (each later than
// the last, as most exits are) and tied ones (runs of eight at one tick in
// descending ID order, each inserted into the tail window from the top).
func BenchmarkStreamObserve(b *testing.B) {
	for _, c := range []struct {
		name string
		exit func(i int) (finish int64, id int)
	}{
		{"in-order", func(i int) (int64, int) { return int64(i), i }},
		{"tied", func(i int) (int64, int) { return int64(i / 8), i/8*8 + 7 - i%8 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewStream(5, DefaultTrim)
			tk := &task.Task{State: task.StateCompleted}
			observe := func(i int) {
				tk.Finish, tk.ID = c.exit(i)
				tk.Type = task.Type(i % 5)
				s.Observe(tk)
			}
			for i := 0; i < 2*DefaultTrim; i++ {
				observe(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				observe(2*DefaultTrim + i)
			}
		})
	}
}
