package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"taskprune/bench/internal/result"
	"taskprune/internal/server"
	"taskprune/internal/stats"
)

// latencyLimit is the serve workload's latency limit on raw settle p99. A
// run beyond it, or whose load generator ran later than it, is marked
// invalid: a stall of the host, not of the program, can cause either.
const latencyLimit = 50 * time.Millisecond

// pollEvery paces the status poller: fine enough to resolve millisecond
// settle latencies, coarse enough to leave the daemon most of a core.
const pollEvery = 500 * time.Microsecond

// calibrateEvery is how many requests the load generator sends between two
// calibrations; it calibrates calibrationLead before the next request is
// due, when the daemon has usually settled the previous one.
const (
	calibrateEvery  = 4
	calibrationLead = 2 * time.Millisecond
)

// request is one POST /v1/tasks of the open-loop load.
type request struct {
	due, sent, done time.Time
	ok              bool // 202, every task accepted
	accepted        int
}

// statusPoll is one GET /v1/status.
type statusPoll struct {
	sent, got  time.Time
	submitted  int
	queueDepth int
}

// runServe boots the daemon on a loopback port and drives it open loop:
// request i is due at start + i/rate whatever happened to request i-1; one
// connection submits and a second polls /v1/status every pollEvery. Set-up
// ends at the first /healthz 200; with setupOnly the run stops there.
func runServe(p Params, traced bool, mainStart time.Time, setupOnly bool, spansPath string) (res childResult, err error) {
	cfg, err := server.ParseConfig(strings.NewReader(fmt.Sprintf(
		`{"name": %q, "fleet": {"pet": "spec"}, "heuristic": %q, "dcs": %d, "route": %q, "queue": %d, "seed": %d}`,
		p.Workload, p.Heuristic, p.DCs, p.Route, p.Queue, p.Seed)))
	if err != nil {
		return res, err
	}
	srv, err := server.New(cfg)
	if err != nil {
		return res, err
	}
	srv.Start()
	// Draining stops the pump; draining twice is harmless.
	defer func() { _ = drain(srv) }()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	defer func() {
		_ = hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	submitter, poller := oneConnClient(), oneConnClient()
	defer submitter.CloseIdleConnections()
	defer poller.CloseIdleConnections()

	for {
		resp, err := poller.Get(base + "/healthz")
		if err != nil {
			return res, err
		}
		drainBody(resp)
		if resp.StatusCode == http.StatusOK {
			break
		}
	}
	res.SetupS = time.Since(mainStart).Seconds() / hostFactor()
	if setupOnly {
		return res, nil
	}

	nTypes := srv.Matrix().NumTypes()
	rng := stats.NewRNG(p.Seed)
	interval := time.Second / time.Duration(p.ReqPerSecond)
	reqs := make([]request, p.Requests)
	polls := make(chan []statusPoll, 1)
	stopPolls := make(chan int, 1) // total tasks accepted, once the load ends
	var pollErr error
	var cals []time.Duration
	start := time.Now().Add(calibrationLead)
	go func() { polls <- pollStatus(poller, base, stopPolls, &pollErr) }()
	for i := range reqs {
		body := submitBody(rng, nTypes, p.TasksPerReq)
		r := &reqs[i]
		r.due = start.Add(time.Duration(i) * interval)
		if i%calibrateEvery == 0 {
			time.Sleep(time.Until(r.due.Add(-calibrationLead)))
			cals = append(cals, calibrate())
		}
		time.Sleep(time.Until(r.due))
		r.sent = time.Now()
		r.ok, r.accepted = submit(submitter, base, body, p.TasksPerReq)
		r.done = time.Now()
	}
	cals = append(cals, calibrate())
	accepted := 0
	for _, r := range reqs {
		accepted += r.accepted
	}
	stopPolls <- accepted
	ps := <-polls
	if err := drain(srv); err != nil {
		return res, err
	}
	final := srv.Final()

	res.Attempted = len(reqs)
	fail := func(format string, args ...any) {
		res.FailedChecks = append(res.FailedChecks, fmt.Sprintf(format, args...))
	}
	if pollErr != nil {
		fail("status: %v", pollErr)
	}
	if final == nil {
		return res, errors.New("daemon drained without final statistics")
	}
	if final.Total != accepted {
		fail("final total %d, tasks accepted %d", final.Total, accepted)
	}
	if len(ps) == 0 {
		return res, errors.New("no status poll succeeded")
	}

	// A request settles when a polled status shows the engine has admitted
	// every task accepted through it: status is published only after the
	// engine quiesces, so those tasks have exited. A failed request never
	// settles within the run. As in batch runs, the first twelfth of the
	// load is warm-up, and latencies are scaled by the host's speed around
	// each request (the calibrations before and after its block).
	end := ps[len(ps)-1].got
	warm := len(reqs) / windows
	var submitMS, settleMS, rawSettleMS, serviceMS, statusMS []float64
	lateMax, depthMax, cum, k := time.Duration(0), 0, 0, 0
	for i, r := range reqs {
		cum += r.accepted
		lateMax = max(lateMax, r.sent.Sub(r.due))
		for k < len(ps) && ps[k].submitted < cum {
			k++
		}
		submitted, settled := end, end
		if !r.ok {
			res.Failed++
		} else if submitted = r.done; k < len(ps) {
			settled = ps[k].got
		}
		if i < warm {
			continue
		}
		b := i / calibrateEvery
		f := float64(cals[b]+cals[b+1]) / 2 / float64(calibrationNominal)
		serviceMS = append(serviceMS, ms(r.done.Sub(r.sent)))
		submitMS = append(submitMS, ms(submitted.Sub(r.due))/f)
		settleMS = append(settleMS, ms(settled.Sub(r.due))/f)
		rawSettleMS = append(rawSettleMS, ms(settled.Sub(r.due)))
	}
	for _, q := range ps {
		statusMS = append(statusMS, ms(q.got.Sub(q.sent)))
		depthMax = max(depthMax, q.queueDepth)
	}
	for _, xs := range [][]float64{submitMS, settleMS, rawSettleMS, serviceMS, statusMS} {
		sort.Float64s(xs)
	}
	if p99 := result.Quantile(rawSettleMS, 0.99); p99 > ms(latencyLimit) {
		res.Invalid = append(res.Invalid, fmt.Sprintf("settle p99 %.2f ms is over the %v limit", p99, latencyLimit))
	}
	if lateMax > latencyLimit {
		res.Invalid = append(res.Invalid, fmt.Sprintf("the load generator ran up to %v late (limit %v)", lateMax, latencyLimit))
	}
	res.Metrics = map[string]float64{
		"arrivals_per_s":                float64(accepted) / end.Sub(start).Seconds(),
		"latency_p50_ms":                result.Quantile(settleMS, 0.50),
		"latency_p95_ms":                result.Quantile(settleMS, 0.95),
		"robustness_pct":                final.RobustnessPct,
		"server.submit_p50_ms":          result.Quantile(submitMS, 0.50),
		"server.submit_p99_ms":          result.Quantile(submitMS, 0.99),
		"server.settle_p99_ms":          result.Quantile(settleMS, 0.99),
		"server.post_service_p50_ms":    result.Quantile(serviceMS, 0.50),
		"server.status_p50_ms":          result.Quantile(statusMS, 0.50),
		"loadgen.late_max_ms":           ms(lateMax),
		"workload.live_queue_depth_max": float64(depthMax),
	}
	if !traced {
		return res, nil
	}
	for k, v := range pmfBench(srv.Matrix()) {
		res.Metrics[k] = v
	}
	if spansPath != "" {
		// Keep the spans of the last second of load.
		from := end.Add(-time.Second)
		var spans []span
		for _, r := range reqs {
			if r.sent.After(from) {
				spans = append(spans, span{"POST /v1/tasks", r.sent, r.done})
			}
		}
		for _, q := range ps {
			if q.sent.After(from) {
				spans = append(spans, span{"GET /v1/status", q.sent, q.got})
			}
		}
		if err := writeSpans(spansPath, "load", start, end, spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// drain shuts the daemon down gracefully and waits for its pump to exit.
func drain(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}

// oneConnClient is an HTTP client that holds at most one connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// submitBody builds one request of n tasks with types drawn from rng.
func submitBody(rng *stats.RNG, nTypes, n int) []byte {
	b := []byte(`{"tasks": [`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"type": `...)
		b = strconv.AppendInt(b, int64(rng.Intn(nTypes)), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// submit posts one request; ok means a 202 with every task accepted.
func submit(c *http.Client, base string, body []byte, n int) (ok bool, accepted int) {
	resp, err := c.Post(base+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	var out struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return false, 0
	}
	return resp.StatusCode == http.StatusAccepted && out.Accepted == n, out.Accepted
}

// pollStatus polls /v1/status every pollEvery until the load has ended
// (stop delivers the tasks accepted) and a status shows them all admitted,
// or ten seconds after the load ended. A transport error or a status that
// reports a pump error ends polling and is returned through errp.
func pollStatus(c *http.Client, base string, stop <-chan int, errp *error) []statusPoll {
	var ps []statusPoll
	target, deadline := -1, time.Time{}
	for {
		if len(ps) > 0 {
			time.Sleep(time.Until(ps[len(ps)-1].sent.Add(pollEvery)))
		}
		q := statusPoll{sent: time.Now()}
		resp, err := c.Get(base + "/v1/status")
		if err != nil {
			*errp = err
			return ps
		}
		var st server.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		q.got = time.Now()
		if err != nil {
			*errp = err
			return ps
		}
		if st.Error != "" {
			*errp = errors.New(st.Error)
			return ps
		}
		q.submitted, q.queueDepth = st.Submitted, st.QueueDepth
		ps = append(ps, q)
		if target < 0 {
			select {
			case target = <-stop:
				deadline = q.got.Add(10 * time.Second)
			default:
			}
		}
		if target >= 0 && (q.submitted >= target || q.got.After(deadline)) {
			return ps
		}
	}
}
