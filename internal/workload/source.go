package workload

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"taskprune/internal/pet"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// Source is a pull-based task stream: the simulator asks for the next
// arrival only when its event horizon reaches it, so a trial's live heap
// holds the in-flight tasks instead of the whole workload. Next returns
// tasks in non-decreasing Arrival order (ties in the order the legacy
// sorted-slice workload would have produced them); ok is false once the
// stream is exhausted. Sources are single-trial and not safe for
// concurrent use — the parallel trial runner gives each worker its own.
type Source interface {
	Next() (*task.Task, bool)
}

// Recycler is implemented by sources that pool task structs. The simulator
// hands every retired (completed/missed/dropped) task back through Recycle
// so the steady-state arrival path reuses the task and its TrueExec
// backing array instead of allocating; callers that retain tasks after the
// trial must not recycle them.
type Recycler interface {
	Recycle(*task.Task)
}

// SliceSource adapts a pre-generated workload slice (Generate, ReadCSV,
// hand-built tests) to the Source interface. It yields the tasks in
// non-decreasing arrival order with ties kept in slice order — exactly the
// order the push-based simulator used to drain them from its event queue —
// without mutating the caller's slice. It does not implement Recycler: the
// caller owns the tasks and may inspect them after the trial.
type SliceSource struct {
	tasks []*task.Task
	pos   int
}

// FromTasks wraps a workload slice in a SliceSource.
func FromTasks(tasks []*task.Task) *SliceSource {
	ordered := append([]*task.Task(nil), tasks...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Arrival < ordered[j].Arrival
	})
	return &SliceSource{tasks: ordered}
}

// Next implements Source.
func (s *SliceSource) Next() (*task.Task, bool) {
	if s.pos >= len(s.tasks) {
		return nil, false
	}
	t := s.tasks[s.pos]
	s.pos++
	return t, true
}

// taskPool recycles task structs (and their TrueExec backing arrays)
// process-wide, mirroring the pmf arena's process-wide block pool: a
// million-task trial's steady state allocates tasks only while growing to
// its live-set high-water mark.
var taskPool = sync.Pool{New: func() any { return &task.Task{} }}

// getTask returns a reset pooled task with TrueExec sized for nm machines.
func getTask(nm int) *task.Task {
	t := taskPool.Get().(*task.Task)
	if cap(t.TrueExec) < nm {
		t.TrueExec = make([]int64, nm)
	} else {
		t.TrueExec = t.TrueExec[:nm]
	}
	t.ID = 0
	t.Type = 0
	t.Arrival = 0
	t.Deadline = 0
	t.State = task.StatePending
	t.Machine = -1
	t.Start = 0
	t.Finish = 0
	t.Defers = 0
	t.Consumed = 0
	return t
}

// typeClock is one task type's gamma arrival process: its next (not yet
// emitted) arrival, and where the gaps come from — a pre-drawn clock buffer
// in replay mode, a private RNG in pure-stream mode.
type typeClock struct {
	next float64 // arrival clock of the head task
	arr  int64   // int64(next), the merge key (legacy sorts truncated ticks)
	buf  []float64
	pos  int
	rng  *stats.RNG
}

// Stream is the lazy k-way merge of the per-type arrival processes: a small
// heap holds one head arrival per type, tasks materialize (and sample their
// TrueExec) only at emission, and retired tasks return through Recycle. Two
// RNG schedules exist:
//
//   - Replay mode (NewSource): the per-type arrival clocks are pre-drawn
//     from a single shared stream in type-major order — the exact draw
//     order of the legacy Generate — so for any configuration the legacy
//     margin handled, the emitted workload is byte-identical to the old
//     sorted slice (the committed golden decision traces pin this). Only
//     NumTasks/nTypes+2 float64 clocks per type are buffered, never task
//     structs. If a type's buffer runs out before NumTasks emissions (the
//     old margin-cut bias case, e.g. under a strong burst), the clock
//     extends with further draws from the same shared stream instead of
//     silently truncating the type.
//
//   - Pure mode (NewStream): each type owns an RNG split, gaps are drawn
//     on demand, and memory is O(nTypes + live tasks) no matter how long
//     the stream runs — NumTasks may be 0 for an unbounded stream. Values
//     differ from replay mode at equal seeds; determinism per (config,
//     seed) still holds.
type Stream struct {
	matrix  *pet.Matrix
	nm      int
	limit   int // 0 = unbounded
	emitted int
	execRNG *stats.RNG
	// extRNG continues the shared arrival stream past the replay buffers;
	// nil in pure mode.
	extRNG  *stats.RNG
	rate    RateFunc // nil = constant 1
	meanGap float64
	varFrac float64
	spans   []int64
	clocks  []typeClock
	heap    []int
}

// NewSource builds the replay-mode stream for cfg: a drop-in pull-based
// replacement for Generate whose emitted tasks match the legacy slice
// byte for byte (same seed, same configuration) while buffering only
// per-type arrival clocks. cfg.NumTasks must be positive.
func NewSource(cfg Config, matrix *pet.Matrix, rng *stats.RNG) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newStream(cfg, matrix, rng, true)
}

// NewStream builds the pure streaming source: constant memory in the
// stream length, per-type RNG splits, NumTasks as an emission limit
// (0 = unbounded). Use it for trials far past the scale a materialized
// workload allows; its RNG schedule differs from Generate/NewSource.
func NewStream(cfg Config, matrix *pet.Matrix, rng *stats.RNG) (*Stream, error) {
	if err := cfg.validate(true); err != nil {
		return nil, err
	}
	return newStream(cfg, matrix, rng, false)
}

func newStream(cfg Config, matrix *pet.Matrix, rng *stats.RNG, replay bool) (*Stream, error) {
	nTypes := matrix.NumTypes()
	if nTypes == 0 {
		return nil, fmt.Errorf("workload: PET matrix has no task types")
	}
	st := &Stream{
		matrix:  matrix,
		nm:      matrix.NumMachines(),
		limit:   cfg.NumTasks,
		meanGap: float64(nTypes) / cfg.Rate,
		varFrac: cfg.VarFrac,
		rate:    cfg.effectiveRate(),
		spans:   DeadlineSpans(matrix, cfg.Beta),
		clocks:  make([]typeClock, nTypes),
	}
	// Split order matches Generate: the arrival stream first, the
	// execution-time stream second, so both replay the legacy draws.
	arrivalRNG := rng.Split()
	st.execRNG = rng.Split()
	if replay {
		st.extRNG = arrivalRNG
		perTypeCount := cfg.NumTasks/nTypes + 2
		for ti := range st.clocks {
			buf := make([]float64, perTypeCount)
			var clock float64
			for k := range buf {
				clock += arrivalRNG.GammaRate(st.meanGap, st.varFrac) / st.factor(clock)
				buf[k] = clock
			}
			st.clocks[ti].buf = buf
		}
	} else {
		for ti := range st.clocks {
			st.clocks[ti].rng = arrivalRNG.Split()
		}
	}
	for ti := range st.clocks {
		st.advance(ti)
	}
	st.heap = make([]int, nTypes)
	for i := range st.heap {
		st.heap[i] = i
	}
	for i := nTypes/2 - 1; i >= 0; i-- {
		st.siftDown(i)
	}
	return st, nil
}

// factor evaluates the effective rate multiplier at an arrival clock,
// guarding against rate functions that would freeze or reverse the clock.
func (st *Stream) factor(clock float64) float64 {
	if st.rate == nil {
		return 1
	}
	f := st.rate(clock)
	if !(f > 0) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("workload: rate function returned %v at clock %v (must be positive and finite)", f, clock))
	}
	return f
}

// advance moves type ti's head to its next arrival.
func (st *Stream) advance(ti int) {
	tc := &st.clocks[ti]
	switch {
	case tc.pos < len(tc.buf): // replay: pre-drawn clock
		tc.next = tc.buf[tc.pos]
		tc.pos++
	case tc.rng != nil: // pure: private gap stream
		tc.next += tc.rng.GammaRate(st.meanGap, st.varFrac) / st.factor(tc.next)
	default: // replay past the buffer: continue the shared stream
		tc.next += st.extRNG.GammaRate(st.meanGap, st.varFrac) / st.factor(tc.next)
	}
	tc.arr = int64(tc.next)
}

// less orders the merge heap by (arrival tick, type index); within a type
// the clock is monotone, so emission order matches the legacy stable sort
// on (Arrival, Type) exactly.
func (st *Stream) less(a, b int) bool {
	ca, cb := &st.clocks[a], &st.clocks[b]
	if ca.arr != cb.arr {
		return ca.arr < cb.arr
	}
	return a < b
}

func (st *Stream) siftDown(i int) {
	h := st.heap
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && st.less(h[l], h[m]) {
			m = l
		}
		if r < len(h) && st.less(h[r], h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Next implements Source: it pops the earliest head, materializes the task
// from the pool (sampling its ground-truth execution times in emission
// order, which is the legacy sorted order), and advances that type's clock.
func (st *Stream) Next() (*task.Task, bool) {
	if st.limit > 0 && st.emitted >= st.limit {
		return nil, false
	}
	ti := st.heap[0]
	tc := &st.clocks[ti]
	t := getTask(st.nm)
	t.ID = st.emitted
	t.Type = task.Type(ti)
	t.Arrival = tc.arr
	t.Deadline = tc.arr + st.spans[ti]
	for mi := 0; mi < st.nm; mi++ {
		t.TrueExec[mi] = st.matrix.SampleExec(st.execRNG, t.Type, mi)
	}
	st.emitted++
	st.advance(ti)
	st.siftDown(0)
	return t, true
}

// Recycle implements Recycler: the task and its TrueExec array return to
// the process-wide pool for the next emission.
func (st *Stream) Recycle(t *task.Task) {
	if t != nil {
		taskPool.Put(t)
	}
}
