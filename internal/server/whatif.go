package server

import (
	"bytes"
	"encoding/json"
	"fmt"

	"taskprune/internal/metrics"
	"taskprune/internal/scenario"
	"taskprune/internal/task"
	"taskprune/internal/workload"
)

// The what-if advisor: POST /v1/whatif replays the recent submission
// window under an alternative policy configuration and reports the
// robustness delta — the simulator core doubling as an operations tool
// ("would least-queued over 2 DCs have held this morning's burst?").
// Replays run on fresh engines against the captured ground truth, so they
// never touch the live engine; both sides of the comparison (baseline =
// the running config, candidate = the override) replay the same tasks at
// the same ticks.

// Override selects what the candidate configuration changes. Only
// policy-level knobs are overridable: the fleet, beta, and seed are pinned
// — captured tasks carry per-machine ground-truth execution times and
// stamped deadlines, so changing the fleet or the stamping rules would
// invalidate the captures rather than re-judge them.
type Override struct {
	Heuristic *string `json:"heuristic,omitempty"`
	Route     *string `json:"route,omitempty"`
	DCs       *int    `json:"dcs,omitempty"`
	// Scenario, when present, replaces the whole nested scenario document
	// (fleet events and failover/checkpoint/belief policies).
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// apply builds the candidate config: the live config with the override's
// fields swapped in, re-validated from scratch.
func (ov Override) apply(base *Config) (*Config, error) {
	cand := *base
	if ov.Heuristic != nil {
		cand.Heuristic = *ov.Heuristic
	}
	if ov.Route != nil {
		cand.Route = *ov.Route
	}
	if ov.DCs != nil {
		cand.DCs = *ov.DCs
	}
	if len(ov.Scenario) > 0 {
		sc, err := scenario.Parse(bytes.NewReader(ov.Scenario))
		if err != nil {
			return nil, fmt.Errorf("server: whatif: %w", err)
		}
		cand.Scenario = sc
	}
	if err := cand.Validate(); err != nil {
		return nil, err
	}
	return &cand, nil
}

// Outcome is one side of a what-if comparison.
type Outcome struct {
	Heuristic     string  `json:"heuristic"`
	Route         string  `json:"route"`
	DCs           int     `json:"dcs"`
	RobustnessPct float64 `json:"robustness_pct"`
	Completed     int     `json:"completed"`
	Missed        int     `json:"missed"`
	Dropped       int     `json:"dropped"`
	Total         int     `json:"total"`
	GateDrops     int     `json:"gate_drops"`
}

// WhatifResult is the advisor's answer: both outcomes over the same
// replayed window, and the candidate-minus-baseline robustness delta.
type WhatifResult struct {
	Window    int     `json:"window"`
	Baseline  Outcome `json:"baseline"`
	Candidate Outcome `json:"candidate"`
	DeltaPct  float64 `json:"delta_pct"`
}

// whatif runs the comparison. It is handler-goroutine work end to end —
// the only shared state it touches is the capture window's read side.
func (s *Server) whatif(ov Override) (WhatifResult, error) {
	cand, err := ov.apply(s.cfg)
	if err != nil {
		return WhatifResult{}, err
	}
	tasks := s.win.tasks()
	if len(tasks) == 0 {
		return WhatifResult{}, fmt.Errorf("server: whatif: no submissions in the window yet")
	}
	base, err := s.replay(s.cfg, tasks)
	if err != nil {
		return WhatifResult{}, err
	}
	// Fresh task structs for the second replay: the first mutated its set.
	candStats, err := s.replay(cand, s.win.tasks())
	if err != nil {
		return WhatifResult{}, err
	}
	res := WhatifResult{
		Window:    len(tasks),
		Baseline:  outcome(s.cfg, base),
		Candidate: outcome(cand, candStats),
	}
	res.DeltaPct = res.Candidate.RobustnessPct - res.Baseline.RobustnessPct
	return res, nil
}

// replay runs one fresh, un-instrumented engine over the captured window.
func (s *Server) replay(cfg *Config, tasks []*task.Task) (replayStats, error) {
	eng, err := cfg.NewEngine(s.matrix, nil)
	if err != nil {
		return replayStats{}, err
	}
	st, _, err := eng.RunSource(workload.FromTasks(tasks))
	if err != nil {
		return replayStats{}, err
	}
	return replayStats{st: st, gateDrops: eng.Gate().Dropped}, nil
}

type replayStats struct {
	st        metrics.TrialStats
	gateDrops int
}

func outcome(cfg *Config, r replayStats) Outcome {
	return Outcome{
		Heuristic:     cfg.Heuristic,
		Route:         cfg.Route,
		DCs:           cfg.DCs,
		RobustnessPct: r.st.RobustnessPct,
		Completed:     r.st.Completed,
		Missed:        r.st.Missed,
		Dropped:       r.st.Dropped,
		Total:         r.st.Total,
		GateDrops:     r.gateDrops,
	}
}
