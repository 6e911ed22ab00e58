package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"taskprune/internal/cluster"
	"taskprune/internal/metrics"
	"taskprune/internal/pet"
	"taskprune/internal/stats"
	"taskprune/internal/task"
	"taskprune/internal/telemetry"
	"taskprune/internal/workload"
)

// Server is the scheduling daemon: one cluster engine driven by one pump
// goroutine, fed through a bounded LiveSource, exported over HTTP.
//
// Ownership is strict — the pump goroutine is the only toucher of the
// engine, the RNG, and the capture window's write side. HTTP handlers
// interact through three safe surfaces: LiveSource.Push (mutex-guarded,
// non-blocking), atomic counters, and the published status snapshot the
// pump refreshes after every settle. The simulated clock is event-driven:
// it advances when submissions and their downstream events demand, never
// with wall time, so an idle daemon holds its clock (and far-future
// scenario events) still.
type Server struct {
	cfg    *Config
	matrix *pet.Matrix
	eng    *cluster.Engine
	src    *workload.LiveSource
	tel    *telemetry.Server
	rng    *stats.RNG
	spans  []int64
	nextID int
	win    *window

	rejected atomic.Int64 // 429s answered
	accepted atomic.Int64 // submissions buffered OK
	draining atomic.Bool

	mu     sync.Mutex
	status Status
	final  *metrics.TrialStats
	runErr error

	done chan struct{}
}

// Status is the daemon's published state snapshot (GET /v1/status). The
// pump refreshes it after every settle; QueueDepth and the rejection
// counter are read live at request time.
type Status struct {
	Name     string `json:"name"`
	Draining bool   `json:"draining"`
	// Now is the simulated clock (event-driven, not wall time).
	Now int64 `json:"now"`
	// Accepted counts submissions buffered; Submitted those the engine has
	// admitted; InFlight those admitted but not yet exited; QueueDepth
	// those buffered but not yet admitted. Rejected counts 429 answers.
	Accepted   int64 `json:"accepted"`
	Submitted  int   `json:"submitted"`
	InFlight   int   `json:"in_flight"`
	QueueDepth int   `json:"queue_depth"`
	Rejected   int64 `json:"rejected"`
	// Counts are the raw exit tallies; RobustnessPct the trimmed-window
	// robustness over everything observed so far.
	Counts        metrics.Counts `json:"counts"`
	RobustnessPct float64        `json:"robustness_pct"`
	// Window is how many recent submissions the what-if advisor holds.
	Window int `json:"window"`
	// DCs is the per-datacenter health/backlog breakdown; Gate the
	// dispatcher's admission-layer counters.
	DCs  []DCStatus        `json:"dcs"`
	Gate metrics.GateStats `json:"gate"`
	// Final carries the end-of-run statistics once a drain completes.
	Final *metrics.TrialStats `json:"final,omitempty"`
	// Error surfaces a pump failure (the daemon stops admitting work).
	Error string `json:"error,omitempty"`
}

// DCStatus is one datacenter's row in the status snapshot.
type DCStatus struct {
	Index    int   `json:"index"`
	Machines []int `json:"machines"`
	// Healthy is the dispatcher's belief; InService the ground truth. They
	// diverge only under heartbeat detection.
	Healthy   bool `json:"healthy"`
	InService bool `json:"in_service"`
	// Queued counts tasks the datacenter holds (batch + machine queues).
	Queued int `json:"queued"`
}

// New builds the daemon from a validated config: engine, live source,
// telemetry registry, capture window. Call Start to begin pumping.
func New(cfg *Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	matrix, err := cfg.Matrix()
	if err != nil {
		return nil, err
	}
	eng, err := cfg.NewEngine(matrix, &telemetry.Options{SampleEvery: cfg.SampleEvery})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		matrix: matrix,
		eng:    eng,
		src:    workload.NewLiveSource(cfg.Queue),
		tel:    telemetry.NewServer(),
		rng:    stats.NewRNG(cfg.Seed),
		spans:  workload.DeadlineSpans(matrix, cfg.Beta),
		win:    newWindow(cfg.Window),
		done:   make(chan struct{}),
	}
	if err := eng.StartLive(s.src); err != nil {
		return nil, err
	}
	// Publish the engine shard at every sample boundary so /metrics moves
	// while the pump is mid-burst, not only at settle points. The hook runs
	// on the pump goroutine; Publish hands the handler a self-contained
	// snapshot.
	eng.TelemetrySampler().OnSample = func(int64) {
		s.tel.Publish("cluster", eng.Telemetry().Snapshot())
	}
	s.publish()
	return s, nil
}

// Start launches the pump goroutine. Call exactly once.
func (s *Server) Start() { go s.pump() }

// Matrix exposes the deployment's PET (handlers validate task types
// against it).
func (s *Server) Matrix() *pet.Matrix { return s.matrix }

// Telemetry exposes the daemon's telemetry registry, so a deployment can
// bind a dedicated metrics listener next to the API mux.
func (s *Server) Telemetry() *telemetry.Server { return s.tel }

// pump is the engine-owning goroutine: it blocks on the submission
// channel, admits each burst in arrival order, settles the engine between
// bursts, and publishes a fresh status snapshot. A burst is at most
// DefaultQueue tasks, the most a default deployment's buffer holds at
// once: its tasks share one arrival tick and wait in the batch together,
// so the cost per task grows with the burst, and an unbounded burst after
// a stall would settle more slowly than new work arrives. Anything still
// buffered is admitted by the next pass, at the clock that settle left.
// It exits when the source is closed and drained (graceful shutdown), the
// engine errors, or something under it panics — a panic is contained and
// reported, not a process crash.
func (s *Server) pump() {
	defer close(s.done)
	defer s.containPanic()
	for {
		t, ok := s.src.Next()
		if !ok {
			break
		}
		if err := s.submit(t); err != nil {
			s.fail(err)
			return
		}
		// Drain whatever else arrived while we worked, without blocking:
		// one settle per burst, not per task.
		for n := 1; n < DefaultQueue; n++ {
			t2, ok2, _ := s.src.Poll()
			if !ok2 {
				break
			}
			if err := s.submit(t2); err != nil {
				s.fail(err)
				return
			}
		}
		if err := s.eng.Quiesce(); err != nil {
			s.fail(err)
			return
		}
		s.publish()
	}
	st, _, err := s.eng.FinishLive()
	s.mu.Lock()
	if err != nil {
		s.runErr = err
	} else {
		s.final = &st
	}
	s.mu.Unlock()
	s.publish()
}

// submit stamps one buffered submission — ID, arrival at the engine's
// clock, deadline from the per-type span unless the producer set a
// relative one, ground-truth execution times from the daemon's RNG — then
// captures it for the what-if window and admits it.
func (s *Server) submit(t *task.Task) error {
	t.ID = s.nextID
	s.nextID++
	arr := s.eng.Now()
	t.Arrival = arr
	// Handlers stash a relative deadline (ticks from arrival) in Deadline;
	// zero means "use the configured span".
	span := t.Deadline
	if span <= 0 {
		span = s.spans[t.Type]
	}
	t.Deadline = arr + span
	for mi := range t.TrueExec {
		t.TrueExec[mi] = s.matrix.SampleExec(s.rng, t.Type, mi)
	}
	s.win.add(t)
	return s.eng.SubmitLive(t)
}

// fail records a pump error and publishes it; the daemon stops admitting
// (healthz goes unhealthy) but keeps serving status for diagnosis.
func (s *Server) fail(err error) {
	s.mu.Lock()
	s.runErr = err
	s.mu.Unlock()
	s.publish()
}

// containPanic recovers a panic on the pump goroutine and records it, with
// the stack, as the run error. The engine may be mid-step and inconsistent,
// so it is not read again: the error goes straight into the published
// snapshot, /healthz turns 503, and submissions are refused.
func (s *Server) containPanic() {
	r := recover()
	if r == nil {
		return
	}
	err := fmt.Errorf("server: pump panic: %v\n%s", r, debug.Stack())
	s.mu.Lock()
	s.runErr = err
	s.status.Error = err.Error()
	s.mu.Unlock()
}

// publish refreshes the status snapshot from the engine. Pump-goroutine
// only (all engine reads happen here, while it is quiescent).
func (s *Server) publish() {
	st := Status{
		Name:          s.cfg.Name,
		Now:           s.eng.Now(),
		Submitted:     s.eng.Submitted(),
		InFlight:      s.eng.InFlight(),
		Counts:        s.eng.LiveCounts(),
		RobustnessPct: s.eng.LiveStats().RobustnessPct,
		Gate:          s.eng.Gate(),
	}
	for _, d := range s.eng.DCList() {
		st.DCs = append(st.DCs, DCStatus{
			Index:     d.Index(),
			Machines:  d.Machines(),
			Healthy:   d.Alive(),
			InService: d.InService(),
			Queued:    d.QueuedLoad(),
		})
	}
	s.tel.Publish("cluster", s.eng.Telemetry().Snapshot())
	s.mu.Lock()
	st.Window = s.win.len()
	st.Final = s.final
	if s.runErr != nil {
		st.Error = s.runErr.Error()
	}
	s.status = st
	s.mu.Unlock()
}

// snapshot returns the published status with the live request-time fields
// (queue depth, rejections, draining) filled in.
func (s *Server) snapshot() Status {
	s.mu.Lock()
	st := s.status
	s.mu.Unlock()
	st.Accepted = s.accepted.Load()
	st.Rejected = s.rejected.Load()
	st.QueueDepth = s.src.Len()
	st.Draining = s.draining.Load()
	return st
}

// healthy reports whether the daemon is accepting work.
func (s *Server) healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runErr == nil && !s.draining.Load()
}

// Drain shuts the daemon down gracefully: no further submissions are
// accepted, everything already buffered is admitted and settled, the
// engine finalizes (flushing stragglers exactly as a batch run would), and
// the final statistics land in the status snapshot. It returns when the
// pump has finished or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.src.Close()
	select {
	case <-s.done:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.runErr
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// Final returns the end-of-run statistics once Drain has completed (nil
// before).
func (s *Server) Final() *metrics.TrialStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final
}

// Serve binds addr and serves the daemon's mux in a background goroutine,
// returning the bound address (":0" friendly, for tests and smoke runs).
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: %w", err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
