package main

import (
	"fmt"

	"taskprune/internal/workload"
)

// workloadDef is one benchmark workload. Batch sizes scale with -seconds so
// that a run on the reference machine (bench/README.md) measures about that
// long, while the work itself stays a fixed function of -seconds and -seed.
type workloadDef struct {
	name      string
	heuristic string
	dcs       int // 0: single fleet, no dispatcher
	route     string
	serve     bool

	tasksPerSecond int // batch: arrivals per second of -seconds

	reqPerSecond, tasksPerReq, queue int // serve: open-loop load
}

// Each workload exercises layers another one bypasses (bench/README.md has
// the full table): pam-34k is mapping and PMF work with no dispatcher,
// mm-34k maps without PMFs or a pruner, cluster4-pam-34k adds pet-aware
// dispatch, and serve-10k drives that cluster live behind HTTP.
var workloads = []workloadDef{
	{
		name:           "pam-34k",
		heuristic:      "PAM",
		tasksPerSecond: 12_000,
	},
	{
		name:           "mm-34k",
		heuristic:      "MM",
		tasksPerSecond: 36_000,
	},
	{
		name:           "cluster4-pam-34k",
		heuristic:      "PAM",
		dcs:            4,
		route:          "pet-aware",
		tasksPerSecond: 36_000,
	},
	{
		name:         "serve-10k",
		heuristic:    "PAM",
		dcs:          4,
		route:        "pet-aware",
		serve:        true,
		reqPerSecond: 200,
		tasksPerReq:  50,
		queue:        2048,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Params are the concrete inputs of one run; they go into the result file.
type Params struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Heuristic string  `json:"heuristic"`
	DCs       int     `json:"dcs,omitempty"`
	Route     string  `json:"route,omitempty"`
	Level     float64 `json:"level,omitempty"`
	Beta      float64 `json:"beta"`
	VarFrac   float64 `json:"var_frac,omitempty"`

	Tasks int `json:"tasks,omitempty"` // batch: arrivals pulled

	Requests     int `json:"requests,omitempty"` // serve
	ReqPerSecond int `json:"req_per_s,omitempty"`
	TasksPerReq  int `json:"tasks_per_req,omitempty"`
	Queue        int `json:"queue,omitempty"`
}

// params sizes w for a run of the given length.
func (w workloadDef) params(seed int64, seconds int) Params {
	p := Params{
		Workload:  w.name,
		Seed:      seed,
		Heuristic: w.heuristic,
		DCs:       w.dcs,
		Route:     w.route,
		Level:     workload.Level34k,
		Beta:      2,
	}
	if w.serve {
		// The daemon stamps arrivals at its own clock, so the level does
		// not apply; β is the server's default.
		p.Level = 0
		p.Requests = w.reqPerSecond * seconds
		p.ReqPerSecond = w.reqPerSecond
		p.TasksPerReq = w.tasksPerReq
		p.Queue = w.queue
		return p
	}
	p.VarFrac = 0.10
	p.Tasks = w.tasksPerSecond * seconds
	return p
}

// metricDef is one metric the benchmark reports; BENCHMARK.json lists the
// same names and units (TestCatalogueMatchesBenchmarkJSON checks it).
type metricDef struct {
	name, unit string
}

// endToEnd are reported by untraced runs of every workload.
var endToEnd = []metricDef{
	{"arrivals_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"robustness_pct", "%"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are reported by traced runs of every workload; a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"heuristics.map_calls", "count"},
	{"heuristics.map_ns", "ns"},
	{"heuristics.map_p99_us", "us"},
	{"heuristics.map_share", "%"},
	{"heuristics.batch_mean", "tasks"},
	{"heuristics.map_useful_frac", "fraction"},
	{"pmf.convolve_ns", "ns"},
	{"pmf.compact_ns", "ns"},
	{"pmf.dropeval_ns", "ns"},
	{"pmf.cond_mean_shifted_ns", "ns"},
	{"pruner.passes", "count"},
	{"pruner.convolve_share", "%"},
	{"cluster.pick_calls", "count"},
	{"cluster.pick_ns", "ns"},
	{"cluster.pick_share", "%"},
	{"workload.next_calls", "count"},
	{"workload.next_ns", "ns"},
	{"workload.live_queue_depth_max", "tasks"},
	{"simulator.self_share", "%"},
	{"server.submit_p50_ms", "ms"},
	{"server.submit_p99_ms", "ms"},
	{"server.settle_p99_ms", "ms"},
	{"server.post_service_p50_ms", "ms"},
	{"server.status_p50_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"trace.overhead_pct", "%"},
}
