package metrics

import (
	"fmt"
	"sync"

	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// exitRec is the fixed-size record a streaming trial keeps per candidate
// trim task: everything the window statistics read from a *task.Task,
// copied out so the task struct itself can return to the workload pool the
// moment it exits.
type exitRec struct {
	finish int64
	id     int
	typ    task.Type
	state  task.State
	defers int
}

// before orders exit records by finish tick, ties by ID. Distinct tasks
// have distinct IDs, so this is a strict total order and the windows below
// keep exactly the tasks a sort-based trim would.
func (a exitRec) before(b exitRec) bool {
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.id < b.id
}

// window keeps the k extreme records of a stream in ascending (finish, ID)
// order, in a ring that starts at recs[first]: with low=true the k
// smallest, with low=false the k largest. Exits mostly arrive in order, so
// once full the low window rejects one with a single comparison against its
// top, and the high window lets it take the slot of the bottom record it
// evicts. Any other record is inserted from the top.
type window struct {
	recs  []exitRec
	first int
	k     int
	low   bool
}

func (w *window) add(r exitRec) {
	n := len(w.recs)
	switch {
	case n < w.k: // filling: nothing is evicted, so first stays 0
		w.recs = append(w.recs, r)
	case w.k == 0:
		return
	case w.low:
		top := w.slot(n - 1)
		if !r.before(w.recs[top]) {
			return
		}
		w.recs[top] = r
		n--
	default:
		if !w.recs[w.first].before(r) {
			return
		}
		w.recs[w.first] = r
		w.first = w.slot(1)
		n--
	}
	// r sits at position n; sink it to its place.
	for ; n > 0; n-- {
		i, j := w.slot(n), w.slot(n-1)
		if !w.recs[i].before(w.recs[j]) {
			return
		}
		w.recs[i], w.recs[j] = w.recs[j], w.recs[i]
	}
}

// slot maps a position in the window's order to its index in recs.
func (w *window) slot(pos int) int {
	if i := w.first + pos; i < len(w.recs) {
		return i
	}
	return w.first + pos - len(w.recs)
}

// Stream accumulates TrialStats incrementally from task exits, so a trial
// never needs the full finished-task set: memory is O(trim + nTypes)
// regardless of how many tasks flow through. Finalize computes the
// statistics over the steady-state window: the first and last trim exits in
// (finish, ID) order are excluded, with the trim halved until a small trial
// keeps at least one task. It keeps the trim smallest and trim largest exit
// records in two sorted windows and subtracts them from whole-stream
// counters; the tests pin the result against a sort-based reference.
type Stream struct {
	nTypes int
	trim   int
	total  int

	// Whole-stream tallies (window = these minus the trimmed records).
	perType          []int
	perTypeCompleted []int
	completed        int
	missed           int
	dropped          int
	approx           int
	defers           int

	head window // trim smallest exits
	tail window // trim largest exits

	// mu, when set via Share, serializes Observe so several goroutines can
	// feed one stream. Everything Observe folds in is order-invariant —
	// integer tallies plus two extreme-record windows whose kept sets
	// depend only on the strict (finish, ID) total order — so Finalize
	// returns the same TrialStats for any interleaving of the same exits.
	mu *sync.Mutex
}

// NewStream returns a streaming collector for nTypes task types and the
// given steady-state trim count.
func NewStream(nTypes, trim int) *Stream {
	if trim < 0 {
		trim = 0
	}
	return &Stream{
		nTypes:           nTypes,
		trim:             trim,
		perType:          make([]int, nTypes),
		perTypeCompleted: make([]int, nTypes),
		head:             window{k: trim, low: true},
		tail:             window{k: trim},
	}
}

// Share arms the stream for concurrent observation: after Share, Observe
// may be called from several goroutines (the parallel cluster engine's
// per-DC workers all exit into one cluster aggregate). The final statistics
// are interleaving-independent — see the mu field note. Total and Finalize
// stay single-goroutine: call them only after every observer has quiesced.
func (s *Stream) Share() *Stream {
	if s.mu == nil {
		s.mu = new(sync.Mutex)
	}
	return s
}

// Observe records one task exit. Tasks must be observed in the order they
// leave the system; the task may be
// recycled immediately after Observe returns. A shared stream (Share) drops
// the ordering requirement: its statistics do not depend on it.
func (s *Stream) Observe(t *task.Task) {
	if s.mu != nil {
		s.mu.Lock()
		s.observe(t)
		s.mu.Unlock()
		return
	}
	s.observe(t)
}

func (s *Stream) observe(t *task.Task) {
	s.total++
	s.perType[t.Type]++
	s.defers += t.Defers
	switch t.State {
	case task.StateCompleted:
		s.completed++
		s.perTypeCompleted[t.Type]++
	case task.StateMissed:
		s.missed++
	case task.StateDropped:
		s.dropped++
	case task.StateApprox:
		s.approx++
	default:
		panic(fmt.Sprintf("metrics: unfinished task in exit stream: %v", t))
	}
	r := exitRec{finish: t.Finish, id: t.ID, typ: t.Type, state: t.State, defers: t.Defers}
	s.head.add(r)
	s.tail.add(r)
}

// Total returns how many exits have been observed.
func (s *Stream) Total() int { return s.total }

// Counts is a point-in-time snapshot of the raw exit tallies — no trim
// window, no derived percentages. The serve daemon's status endpoint reads
// it between submissions; Finalize remains the end-of-trial view.
type Counts struct {
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Missed    int `json:"missed"`
	Dropped   int `json:"dropped"`
	Approx    int `json:"approx"`
}

// Counts returns the current raw exit tallies (zero on a nil stream, before
// any trial began). Like Total it is a single-goroutine read: on a shared
// stream call it only while observers are quiescent.
func (s *Stream) Counts() Counts {
	if s == nil {
		return Counts{}
	}
	return Counts{Total: s.total, Completed: s.completed, Missed: s.missed, Dropped: s.dropped, Approx: s.approx}
}

// Finalize computes the TrialStats for everything observed so far.
// totalCost is the machine-time dollar cost of the whole trial.
func (s *Stream) Finalize(totalCost float64) TrialStats {
	st := TrialStats{
		Total:            s.total,
		Completed:        s.completed,
		Missed:           s.missed,
		Dropped:          s.dropped,
		Approx:           s.approx,
		TotalDefers:      s.defers,
		PerTypeWindow:    append([]int(nil), s.perType...),
		PerTypeCompleted: append([]int(nil), s.perTypeCompleted...),
		PerTypePct:       make([]float64, s.nTypes),
		TotalCost:        totalCost,
	}
	// Small-trial clamp: shrink the trim until a window survives.
	trim := s.trim
	for s.total <= 2*trim && trim > 0 {
		trim /= 2
	}
	s.exclude(&st, &s.head, 0, trim)
	s.exclude(&st, &s.tail, len(s.tail.recs)-trim, trim)
	st.Window = st.Total - 2*trim
	if st.Window > 0 {
		st.RobustnessPct = 100 * float64(st.Completed) / float64(st.Window)
		st.QualityPct = 100 * (float64(st.Completed) + ApproxQualityWeight*float64(st.Approx)) / float64(st.Window)
	}
	var pcts []float64
	for ti := 0; ti < s.nTypes; ti++ {
		if st.PerTypeWindow[ti] == 0 {
			continue
		}
		p := 100 * float64(st.PerTypeCompleted[ti]) / float64(st.PerTypeWindow[ti])
		st.PerTypePct[ti] = p
		pcts = append(pcts, p)
	}
	st.TypeVariancePct = stats.PopVariance(pcts)
	if st.RobustnessPct > 0 {
		st.CostPerPct = totalCost / st.RobustnessPct * 1000 // millidollars
	}
	return st
}

// exclude removes the n records of w from position from on out of the
// window counters: the n smallest of the head window or the n largest of
// the tail window.
func (s *Stream) exclude(st *TrialStats, w *window, from, n int) {
	for pos := from; pos < from+n; pos++ {
		r := w.recs[w.slot(pos)]
		st.PerTypeWindow[r.typ]--
		st.TotalDefers -= r.defers
		switch r.state {
		case task.StateCompleted:
			st.Completed--
			st.PerTypeCompleted[r.typ]--
		case task.StateMissed:
			st.Missed--
		case task.StateDropped:
			st.Dropped--
		case task.StateApprox:
			st.Approx--
		}
	}
}
