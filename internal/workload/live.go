package workload

import (
	"errors"
	"sync"

	"taskprune/internal/task"
)

// Live-submission bridge: a bounded channel-backed Source that turns the
// pull-based streaming engine into a server. HTTP handlers (or any
// producer) Push partially filled tasks in; the single consumer goroutine
// that drives the engine pulls them out with Next/Poll, stamps arrival
// ticks, and admits them. The buffer is the backpressure surface — a full
// channel returns ErrSourceFull immediately (the serve daemon maps it to
// HTTP 429) instead of blocking the producer or growing without bound.
//
// Unlike Stream, a LiveSource emits tasks in submission order with their
// Arrival fields unset: the consumer owns the simulated clock, so it — not
// the producers — decides the arrival tick each task is admitted at. The
// Source contract (non-decreasing arrival order) is therefore the
// consumer's stamping discipline, not a property of the channel.

// Errors reported by LiveSource.Push.
var (
	// ErrSourceFull means the submission buffer is at capacity; the caller
	// should shed load or retry later.
	ErrSourceFull = errors.New("workload: submission buffer full")
	// ErrSourceClosed means the source is draining: no further submissions
	// are accepted.
	ErrSourceClosed = errors.New("workload: source closed")
)

// LiveSource is the bounded channel-backed Source. Push may be called from
// many goroutines; Next/Poll/Chan belong to the single consumer. Retired
// tasks return to the process-wide task pool through Recycle, the same
// sync.Pool recycler Stream uses, so a long-running daemon's steady-state
// submission path allocates nothing once the live-set high-water mark is
// reached.
type LiveSource struct {
	ch chan *task.Task

	mu     sync.Mutex
	closed bool
}

// NewLiveSource builds a live source with the given submission-buffer
// capacity (minimum 1).
func NewLiveSource(capacity int) *LiveSource {
	if capacity < 1 {
		capacity = 1
	}
	return &LiveSource{ch: make(chan *task.Task, capacity)}
}

// NewPooledTask returns a reset task from the process-wide pool with its
// TrueExec sized for nm machines — the allocation-free way for a live
// producer to materialize a submission before Push.
func NewPooledTask(nm int) *task.Task { return getTask(nm) }

// Push enqueues one submission without blocking. It returns ErrSourceFull
// when the buffer is at capacity and ErrSourceClosed after Close; on error
// the caller still owns the task (recycle or drop it).
func (s *LiveSource) Push(t *task.Task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSourceClosed
	}
	select {
	case s.ch <- t:
		return nil
	default:
		return ErrSourceFull
	}
}

// Close stops admissions: subsequent Push calls fail with ErrSourceClosed,
// while the consumer keeps draining whatever is already buffered; after the
// buffer empties, Next reports exhaustion. Closing twice is a no-op.
func (s *LiveSource) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
}

// Next implements Source: it blocks until a submission arrives, and
// reports exhaustion only once the source is closed and drained.
func (s *LiveSource) Next() (*task.Task, bool) {
	t, ok := <-s.ch
	return t, ok
}

// Poll is the non-blocking Next: ok is false when the buffer is momentarily
// empty OR the source is exhausted; open distinguishes the two.
func (s *LiveSource) Poll() (t *task.Task, ok, open bool) {
	select {
	case t, ok = <-s.ch:
		return t, ok, ok
	default:
		return nil, false, true
	}
}

// Len returns how many submissions are buffered right now.
func (s *LiveSource) Len() int { return len(s.ch) }

// Recycle implements Recycler: the task and its TrueExec array return to
// the process-wide pool for the next submission.
func (s *LiveSource) Recycle(t *task.Task) {
	if t != nil {
		taskPool.Put(t)
	}
}
