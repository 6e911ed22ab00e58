package server

import (
	"context"
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
