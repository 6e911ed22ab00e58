// Package eventq provides the time-ordered event queue driving the
// discrete-event simulator: a binary heap keyed by (tick, sequence) so that
// simultaneous events pop in deterministic insertion order, which keeps
// trials reproducible across runs and platforms.
package eventq

// Kind distinguishes the simulator's event types.
type Kind int

const (
	// Completion: a machine finishes its executing task.
	Completion Kind = iota
	// Fleet: a scenario-scheduled fleet change (machine failure, recovery,
	// or degradation) fires. TaskID carries the index of the scenario event
	// so the simulator can look up the full action.
	Fleet
)

// Event is one scheduled occurrence.
type Event struct {
	Tick    int64
	Kind    Kind
	TaskID  int // Completion: task ID; Fleet: scenario event index
	Machine int // valid for Completion
	seq     uint64
}

// Queue is a deterministic min-heap of events. The zero value is ready to
// use. Events are stored by value, so a steady push/pop balance performs no
// heap allocation once the backing array reaches its high-water mark — the
// streaming simulator schedules millions of completions through one Queue.
type Queue struct {
	h   []Event
	seq uint64
}

// Push schedules an event; ties on Tick break by insertion order.
func (q *Queue) Push(e Event) {
	e.seq = q.seq
	q.seq++
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

// Pop removes and returns the earliest event. ok is false when empty.
func (q *Queue) Pop() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	e := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = Event{}
	q.h = q.h[:last]
	if last > 0 {
		q.down(0)
	}
	return e, true
}

// Peek returns the earliest event without removing it.
func (q *Queue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// Len returns the number of queued events.
func (q *Queue) Len() int { return len(q.h) }

func (q *Queue) less(i, j int) bool {
	if q.h[i].Tick != q.h[j].Tick {
		return q.h[i].Tick < q.h[j].Tick
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *Queue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *Queue) down(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && q.less(l, m) {
			m = l
		}
		if r < n && q.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		q.h[i], q.h[m] = q.h[m], q.h[i]
		i = m
	}
}
