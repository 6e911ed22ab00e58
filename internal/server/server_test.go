package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"taskprune/internal/workload"
)

// testConfig builds a small video-fleet (4×4) config, optionally mutated.
func testConfig(t *testing.T, mut func(*Config)) *Config {
	t.Helper()
	c, err := ParseConfig(strings.NewReader(`{"name":"test","fleet":{"pet":"video"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if mut != nil {
		mut(c)
	}
	return c
}

// newTestServer boots a daemon without starting the pump; tests that need
// the pump call s.Start() themselves.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, http.Handler) {
	t.Helper()
	s, err := New(testConfig(t, mut))
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Handler()
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func getStatus(t *testing.T, h http.Handler) Status {
	t.Helper()
	w := do(t, h, "GET", "/v1/status", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/status = %d: %s", w.Code, w.Body)
	}
	var st Status
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("status decode: %v\n%s", err, w.Body)
	}
	return st
}

// waitFor polls the status endpoint until cond holds or the deadline hits.
func waitFor(t *testing.T, h http.Handler, what string, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := getStatus(t, h)
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; last status: %+v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSubmitStatusDrain(t *testing.T) {
	s, h := newTestServer(t, nil)
	s.Start()

	w := do(t, h, "POST", "/v1/tasks", `{"tasks":[{"type":0,"count":10},{"type":3,"count":10}]}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("batch submit = %d: %s", w.Code, w.Body)
	}
	var resp submitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 20 {
		t.Fatalf("accepted %d of 20", resp.Accepted)
	}

	// A bare single-task object is also a valid body.
	if w := do(t, h, "POST", "/v1/tasks", `{"type":1,"deadline_in":500}`); w.Code != http.StatusAccepted {
		t.Fatalf("single submit = %d: %s", w.Code, w.Body)
	}

	st := waitFor(t, h, "21 admitted", func(st Status) bool {
		return st.Submitted == 21 && st.QueueDepth == 0
	})
	if st.Accepted != 21 {
		t.Fatalf("accepted counter %d, want 21", st.Accepted)
	}
	if st.Window != 21 {
		t.Fatalf("what-if window %d, want 21", st.Window)
	}
	if st.Draining || st.Final != nil || st.Error != "" {
		t.Fatalf("premature terminal state: %+v", st)
	}
	if len(st.DCs) != 1 || len(st.DCs[0].Machines) != 4 {
		t.Fatalf("dc breakdown %+v, want one 4-machine dc", st.DCs)
	}

	drain(t, s)
	fin := s.Final()
	if fin == nil {
		t.Fatal("no final stats after drain")
	}
	if fin.Total != 21 {
		t.Fatalf("final accounts %d tasks, want 21", fin.Total)
	}

	st = getStatus(t, h)
	if !st.Draining || st.Final == nil {
		t.Fatalf("post-drain status lacks terminal state: %+v", st)
	}
	if st.Counts.Total != 21 {
		t.Fatalf("post-drain counts.total %d, want 21", st.Counts.Total)
	}
	if w := do(t, h, "GET", "/healthz", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain = %d, want 503", w.Code)
	}
	if w := do(t, h, "POST", "/v1/tasks", `{"type":0}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %d, want 503", w.Code)
	}
}

// TestSubmitStampsDeadlineSpan: a submission without deadline_in is
// stamped with the workload generator's slack rule under the configured
// Beta, Deadline = Arrival + workload.DeadlineSpans(m, Beta)[type]; one
// with deadline_in keeps its own relative deadline.
func TestSubmitStampsDeadlineSpan(t *testing.T) {
	const beta = 3.5
	s, h := newTestServer(t, func(c *Config) { c.Beta = beta })
	body := `{"tasks":[{"type":0,"count":2},{"type":3},{"type":1,"deadline_in":500}]}`
	if w := do(t, h, "POST", "/v1/tasks", body); w.Code != http.StatusAccepted {
		t.Fatalf("batch submit = %d: %s", w.Code, w.Body)
	}
	s.Start()
	drain(t, s)
	spans := workload.DeadlineSpans(s.Matrix(), beta)
	got := s.win.tasks()
	if len(got) != 4 {
		t.Fatalf("what-if window holds %d submissions, want 4", len(got))
	}
	for i, tk := range got {
		want := tk.Arrival + spans[tk.Type]
		if i == 3 {
			want = tk.Arrival + 500
		}
		if tk.Deadline != want {
			t.Errorf("submission %d (type %d, arrival %d): deadline %d, want %d", i, tk.Type, tk.Arrival, tk.Deadline, want)
		}
	}
}

func TestBackpressure429(t *testing.T) {
	// No pump: the buffer fills and stays full, so the 429 is deterministic.
	s, h := newTestServer(t, func(c *Config) { c.Queue = 2 })

	w := do(t, h, "POST", "/v1/tasks", `{"type":0,"count":5}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overfull submit = %d: %s", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var resp submitResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 {
		t.Fatalf("partial batch accepted %d, want 2 (queue capacity)", resp.Accepted)
	}
	if resp.Error == "" {
		t.Fatal("429 body without error message")
	}

	st := getStatus(t, h)
	if st.Accepted != 2 || st.Rejected != 1 || st.QueueDepth != 2 {
		t.Fatalf("status accepted=%d rejected=%d depth=%d, want 2/1/2", st.Accepted, st.Rejected, st.QueueDepth)
	}
	// The daemon is still healthy — backpressure is not failure.
	if w := do(t, h, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz under backpressure = %d, want 200", w.Code)
	}
	s.Start()
	drain(t, s)
	if fin := s.Final(); fin == nil || fin.Total != 2 {
		t.Fatalf("final = %+v, want the 2 buffered tasks accounted", fin)
	}
}

func TestSubmitRejections(t *testing.T) {
	s, h := newTestServer(t, nil)
	cases := []struct {
		name, body string
	}{
		{"malformed", `{"type":`},
		{"unknown-field", `{"type":0,"priority":9}`},
		{"unknown-field-batch", `{"tasks":[{"type":0}],"mode":"turbo"}`},
		{"type-too-big", `{"type":99}`},
		{"type-negative", `{"type":-1}`},
		{"negative-count", `{"type":0,"count":-2}`},
		{"negative-deadline", `{"type":0,"deadline_in":-5}`},
		{"empty-batch", `{"tasks":[]}`},
		{"over-cap", `{"type":0,"count":10001}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if w := do(t, h, "POST", "/v1/tasks", tc.body); w.Code != http.StatusBadRequest {
				t.Fatalf("%s = %d: %s", tc.body, w.Code, w.Body)
			}
		})
	}
	// Nothing slipped past validation into the buffer.
	if st := getStatus(t, h); st.Accepted != 0 || st.QueueDepth != 0 {
		t.Fatalf("rejected bodies leaked into the buffer: %+v", st)
	}
	if w := do(t, h, "GET", "/v1/tasks", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/tasks = %d, want 405", w.Code)
	}
	s.Start()
	drain(t, s)
}

func TestWhatif(t *testing.T) {
	s, h := newTestServer(t, nil)
	s.Start()
	if w := do(t, h, "POST", "/v1/whatif", `{"heuristic":"MM"}`); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("whatif on empty window = %d, want 422", w.Code)
	}

	if w := do(t, h, "POST", "/v1/tasks", `{"tasks":[{"type":0,"count":15},{"type":2,"count":15}]}`); w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	waitFor(t, h, "window populated", func(st Status) bool { return st.Window == 30 && st.QueueDepth == 0 })

	w := do(t, h, "POST", "/v1/whatif", `{"heuristic":"MM","route":"least-queued"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("whatif = %d: %s", w.Code, w.Body)
	}
	var res WhatifResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Window != 30 {
		t.Fatalf("replayed window %d, want 30", res.Window)
	}
	if res.Baseline.Heuristic != "PAM" || res.Candidate.Heuristic != "MM" {
		t.Fatalf("heuristics %q vs %q, want PAM vs MM", res.Baseline.Heuristic, res.Candidate.Heuristic)
	}
	if res.Candidate.Route != "least-queued" {
		t.Fatalf("candidate route %q", res.Candidate.Route)
	}
	if res.Baseline.Total != 30 || res.Candidate.Total != 30 {
		t.Fatalf("replay totals %d/%d, want 30/30", res.Baseline.Total, res.Candidate.Total)
	}
	if got := res.Candidate.RobustnessPct - res.Baseline.RobustnessPct; got != res.DeltaPct {
		t.Fatalf("delta %v inconsistent with outcomes (%v)", res.DeltaPct, got)
	}

	// Replays are advisory: the live engine's state must be untouched.
	before := getStatus(t, h)
	for i := 0; i < 3; i++ {
		if w := do(t, h, "POST", "/v1/whatif", `{"dcs":2,"route":"pet-aware"}`); w.Code != http.StatusOK {
			t.Fatalf("whatif #%d = %d: %s", i, w.Code, w.Body)
		}
	}
	if after := getStatus(t, h); after.Submitted != before.Submitted || after.Counts != before.Counts {
		t.Fatalf("whatif perturbed the live engine: %+v vs %+v", before, after)
	}

	if w := do(t, h, "POST", "/v1/whatif", `{"heuristic":"YOLO"}`); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid override = %d, want 422", w.Code)
	}
	if w := do(t, h, "POST", "/v1/whatif", `{"beta":9}`); w.Code != http.StatusBadRequest {
		t.Fatalf("non-overridable field = %d, want 400", w.Code)
	}
	drain(t, s)
}

func TestServeEndpoints(t *testing.T) {
	s, h := newTestServer(t, nil)
	s.Start()

	if w := do(t, h, "GET", "/healthz", ""); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", w.Code, w.Body)
	}
	w := do(t, h, "GET", "/", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Header().Get("Content-Type"), "text/html") {
		t.Fatalf("index = %d %q", w.Code, w.Header().Get("Content-Type"))
	}
	if !strings.Contains(w.Body.String(), "hcsim serve") {
		t.Fatal("status page lacks title")
	}
	if w := do(t, h, "GET", "/metrics", ""); w.Code != http.StatusOK {
		t.Fatalf("metrics = %d: %s", w.Code, w.Body)
	}
	w = do(t, h, "GET", "/metrics.json", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics.json = %d", w.Code)
	}
	var anyJSON map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &anyJSON); err != nil {
		t.Fatalf("metrics.json not JSON: %v", err)
	}
	drain(t, s)
}

// TestDrainFlushesBuffered pins the graceful-drain ordering: submissions
// buffered at shutdown are admitted and accounted before the engine
// finalizes, never discarded.
func TestDrainFlushesBuffered(t *testing.T) {
	s, h := newTestServer(t, nil)
	// Fill the buffer before the pump exists, then start and immediately
	// drain: Close delivers everything buffered before reporting exhaustion.
	if w := do(t, h, "POST", "/v1/tasks", `{"type":1,"count":40}`); w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", w.Code, w.Body)
	}
	s.Start()
	drain(t, s)
	fin := s.Final()
	if fin == nil || fin.Total != 40 {
		t.Fatalf("final = %+v, want all 40 buffered tasks accounted", fin)
	}
	// Exit tallies are over the trimmed window, which must itself be fully
	// accounted.
	if fin.Completed+fin.Missed+fin.Dropped != fin.Window {
		t.Fatalf("exit tallies do not add up: %+v", fin)
	}
}
