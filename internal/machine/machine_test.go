package machine

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/stats"
	"taskprune/internal/task"
)

// tinyPET builds a 2-type × 2-machine matrix with small deterministic-ish
// profiles for queue-math tests.
func tinyPET(t *testing.T) *pet.Matrix {
	t.Helper()
	cfg := pet.BuildConfig{Samples: 300, Bins: 16, MaxImpulses: 16, ShapeLo: 4, ShapeHi: 8}
	m, err := pet.Build([][]float64{{10, 20}, {30, 15}}, cfg, stats.NewRNG(2))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func mkTask(id int, typ task.Type, deadline int64) *task.Task {
	tk := task.New(id, typ, 0, deadline)
	tk.TrueExec = []int64{10, 20}
	return tk
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("queue capacity 0 did not panic")
		}
	}()
	New(0, "m0", 0, 0.1)
}

func TestEnqueueCapacity(t *testing.T) {
	m := New(0, "m0", 3, 0)
	for i := 0; i < 3; i++ {
		if err := m.Enqueue(mkTask(i, 0, 100)); err != nil {
			t.Fatalf("Enqueue %d: %v", i, err)
		}
	}
	if err := m.Enqueue(mkTask(3, 0, 100)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overfull Enqueue = %v, want ErrQueueFull", err)
	}
	if got := m.QueueLen(); got != 3 {
		t.Errorf("QueueLen = %d, want 3", got)
	}
	if got := m.FreeSlots(); got != 0 {
		t.Errorf("FreeSlots = %d, want 0", got)
	}
}

func TestEnqueueSetsState(t *testing.T) {
	m := New(1, "m1", 2, 0)
	tk := mkTask(0, 0, 100)
	if err := m.Enqueue(tk); err != nil {
		t.Fatal(err)
	}
	if tk.State != task.StateQueued {
		t.Errorf("State = %v, want queued", tk.State)
	}
	if tk.Machine != 1 {
		t.Errorf("Machine = %d, want 1", tk.Machine)
	}
}

func TestStartNextFCFS(t *testing.T) {
	m := New(0, "m0", 6, 0)
	a, b := mkTask(0, 0, 100), mkTask(1, 0, 100)
	m.Enqueue(a)
	m.Enqueue(b)
	got := m.StartNext(5)
	if got != a {
		t.Fatalf("StartNext returned %v, want first-enqueued %v", got, a)
	}
	if a.State != task.StateRunning || a.Start != 5 {
		t.Errorf("started task = %+v", a)
	}
	if m.Executing() != a {
		t.Error("Executing() mismatch")
	}
	// Starting again while busy returns nil.
	if m.StartNext(6) != nil {
		t.Error("StartNext while busy should return nil")
	}
	// Pending preserved in order.
	if len(m.Pending()) != 1 || m.Pending()[0] != b {
		t.Error("pending queue corrupted")
	}
}

func TestFinishExecutingAccountsBusyTime(t *testing.T) {
	m := New(0, "m0", 6, 0)
	a := mkTask(0, 0, 100)
	m.Enqueue(a)
	m.StartNext(10)
	got := m.FinishExecuting(25)
	if got != a {
		t.Fatal("FinishExecuting returned wrong task")
	}
	if m.BusyTicks(25) != 15 {
		t.Errorf("BusyTicks = %d, want 15", m.BusyTicks(25))
	}
	if !m.Idle() {
		t.Error("machine should be idle after finish")
	}
}

func TestFinishExecutingPanicsWhenIdle(t *testing.T) {
	m := New(0, "m0", 6, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("FinishExecuting on idle machine did not panic")
		}
	}()
	m.FinishExecuting(5)
}

func TestBusyTicksIncludesInProgressRun(t *testing.T) {
	m := New(0, "m0", 6, 0)
	m.Enqueue(mkTask(0, 0, 100))
	m.StartNext(10)
	if got := m.BusyTicks(30); got != 20 {
		t.Errorf("BusyTicks mid-run = %d, want 20", got)
	}
}

func TestRemovePending(t *testing.T) {
	m := New(0, "m0", 6, 0)
	a, b, c := mkTask(0, 0, 100), mkTask(1, 0, 100), mkTask(2, 0, 100)
	m.Enqueue(a)
	m.Enqueue(b)
	m.Enqueue(c)
	if !m.RemovePending(b) {
		t.Fatal("RemovePending(b) = false")
	}
	if m.RemovePending(b) {
		t.Error("double remove succeeded")
	}
	p := m.Pending()
	if len(p) != 2 || p[0] != a || p[1] != c {
		t.Errorf("pending after removal = %v", p)
	}
}

// TestTailPMFChains: each task queued behind the executing one pushes the
// machine's free time later in expectation, and every tail stays a
// normalized distribution.
func TestTailPMFChains(t *testing.T) {
	matrix := tinyPET(t)
	m := New(0, "m0", 6, 0)
	// Generous deadlines so nothing is hopeless.
	tasks := []*task.Task{mkTask(0, 0, 100), mkTask(1, 1, 200), mkTask(2, 0, 300)}
	last := -1.0
	for i, tk := range tasks {
		m.Enqueue(tk)
		if i == 0 {
			m.StartNext(0)
		}
		tail := m.TailPMF(nil, 0, matrix, pmf.PendingDrop, 32, nil)
		if math.Abs(tail.Mass()-1) > 1e-6 {
			t.Errorf("tail after %d tasks has mass %v", i+1, tail.Mass())
		}
		if tail.Mean() <= last {
			t.Errorf("tail mean after %d tasks = %v, not past %v", i+1, tail.Mean(), last)
		}
		last = tail.Mean()
	}
}

func TestTailPMFExecutingConditioned(t *testing.T) {
	matrix := tinyPET(t)
	m := New(0, "m0", 6, 0)
	a := mkTask(0, 0, 100)
	m.Enqueue(a)
	m.StartNext(0)
	// After running 15 ticks (longer than the ~10-tick mean), the remaining
	// completion time must be conditioned at now.
	if tail := m.TailPMF(nil, 15, matrix, pmf.PendingDrop, 32, nil); tail.Start() < 15 {
		t.Errorf("conditioned completion starts at %d, want >= 15", tail.Start())
	}
}

func TestTailPMFIdle(t *testing.T) {
	matrix := tinyPET(t)
	m := New(0, "m0", 6, 0)
	p := m.TailPMF(nil, 42, matrix, pmf.PendingDrop, 32, nil)
	if p.At(42) != 1 {
		t.Errorf("idle TailPMF = %v, want impulse at 42", p)
	}
}

func TestTailPMFEvictBoundedByDeadline(t *testing.T) {
	matrix := tinyPET(t)
	m := New(0, "m0", 6, 0)
	a := mkTask(0, 0, 12) // tight deadline
	m.Enqueue(a)
	m.StartNext(0)
	p := m.TailPMF(nil, 0, matrix, pmf.Evict, 32, nil)
	if p.End() > 12 {
		t.Errorf("evict free time extends to %d past deadline 12", p.End())
	}
}

// queueSpec is a machine queue to build: tasks[0] executes when head is
// set (started at start under runSpeed, with the machine at speed since),
// and the rest wait in FCFS order.
type queueSpec struct {
	id              int
	head            bool
	start           int64
	runSpeed, speed float64
	tasks           []*task.Task
}

// randomQueue draws a queue at tick now: an idle or busy head (restored
// credit and a mid-run speed change included), then up to five pending
// tasks, some restored, with deadlines from already past to comfortable.
func randomQueue(r *rand.Rand, now int64) queueSpec {
	q := queueSpec{
		id:       r.Intn(2),
		head:     r.Intn(4) != 0,
		start:    now - r.Int63n(40),
		runSpeed: []float64{1, 1.5}[r.Intn(2)],
		speed:    []float64{1, 2}[r.Intn(2)],
	}
	n := r.Intn(6)
	if q.head {
		n++
	}
	for i := 0; i < n; i++ {
		tk := mkTask(i, task.Type(r.Intn(2)), now-5+r.Int63n(150))
		if r.Intn(3) == 0 {
			tk.Consumed = 1 + r.Int63n(15)
		}
		q.tasks = append(q.tasks, tk)
	}
	return q
}

// build loads a fresh machine with copies of the spec's tasks for which
// keep(index) holds, and returns it.
func (q queueSpec) build(keep func(i int) bool) *Machine {
	m := New(q.id, "m", 8, 0)
	m.SetSpeed(q.runSpeed)
	for i, tmpl := range q.tasks {
		if !keep(i) {
			continue
		}
		tk := *tmpl
		if err := m.Enqueue(&tk); err != nil {
			panic(err)
		}
		if i == 0 && q.head {
			m.StartNext(q.start)
		}
	}
	m.SetSpeed(q.speed)
	return m
}

// samePMF reports whether p and q hold bit-identical mass on one support.
func samePMF(p, q *pmf.PMF) bool {
	if p.Start() != q.Start() || p.Len() != q.Len() {
		return false
	}
	for tick := p.Start(); tick <= p.End(); tick++ {
		if math.Float64bits(p.At(tick)) != math.Float64bits(q.At(tick)) {
			return false
		}
	}
	return true
}

// TestTailPMFDropWalk: on random queues, dropping any subset of tasks —
// the executing head included — during the walk leaves the machine
// holding exactly the rest, and returns the nil-callback tail of a machine
// built with that rest. Each task is judged once, in queue order, at its
// position among the tasks kept so far, and the queue version moves
// exactly when something was dropped.
func TestTailPMFDropWalk(t *testing.T) {
	matrix := tinyPET(t)
	a := pmf.NewArena()
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 150; iter++ {
		now := 20 + r.Int63n(60)
		q := randomQueue(r, now)
		mode := []pmf.DropMode{pmf.PendingDrop, pmf.Evict}[r.Intn(2)]
		maxImp := []int{0, 8, 32}[r.Intn(3)]
		for mask := 0; mask < 1<<len(q.tasks); mask++ {
			dropped := func(i int) bool { return mask&(1<<i) != 0 }
			a.Reset()
			m := q.build(func(int) bool { return true })
			v0 := m.Version()
			var judged []int
			kept := 0
			got := m.TailPMF(a, now, matrix, mode, maxImp, func(tk *task.Task, pos int, success float64, dist *pmf.PMF) bool {
				judged = append(judged, tk.ID)
				if pos != kept {
					t.Fatalf("iter %d mask %b: task %d judged at position %d, want %d", iter, mask, tk.ID, pos, kept)
				}
				if success < 0 || success > 1+1e-9 || dist.IsZero() {
					t.Fatalf("iter %d mask %b: task %d judged with success %v on %v", iter, mask, tk.ID, success, dist)
				}
				if tk == m.Executing() && math.Float64bits(success) != math.Float64bits(dist.SuccessProb(tk.Deadline)) {
					t.Fatalf("iter %d mask %b: head success %v is not its PMF's %v", iter, mask, success, dist.SuccessProb(tk.Deadline))
				}
				if dropped(tk.ID) {
					return true
				}
				kept++
				return false
			})
			var all, rest []int
			for i := range q.tasks {
				all = append(all, i)
				if !dropped(i) {
					rest = append(rest, i)
				}
			}
			if !slices.Equal(judged, all) {
				t.Fatalf("iter %d mask %b: judged %v, want every task once in queue order %v", iter, mask, judged, all)
			}
			var held []int
			if ex := m.Executing(); ex != nil {
				held = append(held, ex.ID)
			}
			for _, tk := range m.Pending() {
				held = append(held, tk.ID)
			}
			if !slices.Equal(held, rest) {
				t.Fatalf("iter %d mask %b: machine holds %v after the walk, want %v", iter, mask, held, rest)
			}
			if (m.Version() != v0) != (mask != 0) {
				t.Fatalf("iter %d mask %b: version %d → %d", iter, mask, v0, m.Version())
			}
			want := q.build(func(i int) bool { return !dropped(i) }).TailPMF(a, now, matrix, mode, maxImp, nil)
			if !samePMF(got, want) {
				t.Fatalf("iter %d mask %b: walk tail %v, want the tail without the dropped tasks %v", iter, mask, got, want)
			}
			if again := m.TailPMF(a, now, matrix, mode, maxImp, nil); !samePMF(again, want) {
				t.Fatalf("iter %d mask %b: machine's tail after the walk %v, want %v", iter, mask, again, want)
			}
		}
	}
}

func TestExpectedReady(t *testing.T) {
	matrix := tinyPET(t)
	m := New(0, "m0", 6, 0)
	if got := m.ExpectedReady(7, matrix); got != 7 {
		t.Errorf("idle ExpectedReady = %v, want 7", got)
	}
	a, b := mkTask(0, 0, 1000), mkTask(1, 1, 1000)
	m.Enqueue(a)
	m.Enqueue(b)
	m.StartNext(0)
	ready := m.ExpectedReady(0, matrix)
	// Expected: remaining of a (≈ mean 10) plus estimated mean of b on
	// machine 0 (≈ 30).
	want := matrix.PMF(0, 0).Mean() + matrix.PMF(1, 0).Mean()
	if math.Abs(ready-want) > 3 {
		t.Errorf("ExpectedReady = %v, want ≈ %v", ready, want)
	}
}

func TestReset(t *testing.T) {
	m := New(0, "m0", 6, 0)
	m.Enqueue(mkTask(0, 0, 100))
	m.StartNext(0)
	m.FinishExecuting(10)
	m.Reset()
	if !m.Idle() || m.QueueLen() != 0 || m.BusyTicks(100) != 0 {
		t.Error("Reset did not clear state")
	}
}
