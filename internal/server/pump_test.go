package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"taskprune/internal/cluster"
	"taskprune/internal/simulator"
	"taskprune/internal/task"
)

// panicPolicy is a dispatch policy that panics on every pick.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "panic" }

func (panicPolicy) Pick(int64, *task.Task, []*cluster.DC) int { panic("injected pick fault") }

// TestPumpPanicContained: a panic under the pump goroutine is recovered
// into the run error with its stack. The process survives, /healthz turns
// 503, submissions are refused, /v1/status carries the error, and Drain
// returns it instead of hanging.
func TestPumpPanicContained(t *testing.T) {
	s, h := newTestServer(t, nil)
	simCfg, err := simulator.ConfigFor(s.cfg.Heuristic, s.matrix)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cluster.New(cluster.Config{DCs: s.cfg.DCs, Policy: panicPolicy{}, Sim: simCfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.StartLive(s.src); err != nil {
		t.Fatal(err)
	}
	s.eng = eng
	s.Start()

	if w := do(t, h, "POST", "/v1/tasks", `{"type":0}`); w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	st := waitFor(t, h, "the pump failure", func(st Status) bool { return st.Error != "" })
	for _, want := range []string{"pump panic", "injected pick fault", "(*Server).pump"} {
		if !strings.Contains(st.Error, want) {
			t.Errorf("status error lacks %q:\n%s", want, st.Error)
		}
	}
	if w := do(t, h, "GET", "/healthz", ""); w.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz after pump panic = %d, want 503", w.Code)
	}
	if w := do(t, h, "POST", "/v1/tasks", `{"type":0}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("submit after pump panic = %d, want 503", w.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err == nil || !strings.Contains(err.Error(), "injected pick fault") {
		t.Errorf("drain after pump panic = %v, want the recovered panic", err)
	}
}

// TestPumpBoundsBurst: a backlog larger than DefaultQueue reaches the
// engine in bursts of at most DefaultQueue tasks, each settled before the
// next is admitted at a later clock, while a backlog that fits one burst
// still arrives at one tick.
func TestPumpBoundsBurst(t *testing.T) {
	for _, n := range []int{1000, DefaultQueue} {
		s, h := newTestServer(t, func(c *Config) { c.Queue = 1024 })
		body := fmt.Sprintf(`{"tasks":[{"type":0,"count":%d}]}`, n)
		if w := do(t, h, "POST", "/v1/tasks", body); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", n, w.Code, w.Body)
		}
		s.Start()
		drain(t, s)
		tasks := s.win.tasks()
		if len(tasks) != n {
			t.Fatalf("window holds %d of %d submissions", len(tasks), n)
		}
		perTick := map[int64]int{}
		for i, tk := range tasks {
			if i > 0 && tk.Arrival < tasks[i-1].Arrival {
				t.Fatalf("backlog %d: task %d arrives at %d after %d", n, tk.ID, tk.Arrival, tasks[i-1].Arrival)
			}
			perTick[tk.Arrival]++
		}
		for tick, k := range perTick {
			if k > DefaultQueue {
				t.Errorf("backlog %d: %d tasks share tick %d, more than %d", n, k, tick, DefaultQueue)
			}
		}
		if n <= DefaultQueue && len(perTick) != 1 {
			t.Errorf("backlog %d arrived over %d ticks, want one", n, len(perTick))
		}
	}
}
