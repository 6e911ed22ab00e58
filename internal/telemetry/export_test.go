package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func sampleShard() Shard {
	r := NewRegistry()
	r.Counter("done_total", "finished tasks", func() int64 { return 12 })
	r.Gauge("depth", "queue depth").Set(3.5)
	h := r.Histogram("lag", "detection lag", []float64{10, 50})
	h.Observe(5)
	h.Observe(60)
	return Shard{Scope: "sim", Snap: r.Snapshot()}
}

func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := WritePrometheus(&sb, sampleShard()); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP hcsim_done_total finished tasks",
		"# TYPE hcsim_done_total counter",
		`hcsim_done_total{scope="sim"} 12`,
		"# TYPE hcsim_depth gauge",
		`hcsim_depth{scope="sim"} 3.5`,
		"# TYPE hcsim_lag histogram",
		`hcsim_lag_bucket{scope="sim",le="10"} 1`,
		`hcsim_lag_bucket{scope="sim",le="50"} 1`,
		`hcsim_lag_bucket{scope="sim",le="+Inf"} 2`,
		`hcsim_lag_sum{scope="sim"} 65`,
		`hcsim_lag_count{scope="sim"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, sampleShard()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var got map[string]struct {
		Counters   map[string]float64 `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Counts []int64 `json:"counts"`
			Count  int64   `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	sim := got["sim"]
	if sim.Counters["done_total"] != 12 || sim.Gauges["depth"] != 3.5 || sim.Histograms["lag"].Count != 2 {
		t.Fatalf("JSON content wrong: %+v", sim)
	}
}

func TestWriteText(t *testing.T) {
	var sb strings.Builder
	if err := WriteText(&sb, sampleShard()); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "sim:") || !strings.Contains(out, "done_total") || !strings.Contains(out, "12") {
		t.Fatalf("text output:\n%s", out)
	}
	if !strings.Contains(out, "3.5") {
		t.Fatalf("gauge missing from text output:\n%s", out)
	}
}

func TestWriteSamplersCSV(t *testing.T) {
	r := NewRegistry()
	var done int64
	r.Counter("done_total", "", func() int64 { return done })
	s := NewSampler(r, &Options{SampleEvery: 100, RingCap: 8})
	done += 2
	s.Tick(100)
	done += 3
	s.Tick(200)
	var sb strings.Builder
	if err := WriteSamplersCSV(&sb, []ScopedSampler{{Scope: "dc0", S: s}, {Scope: "empty", S: nil}}); err != nil {
		t.Fatalf("WriteSamplersCSV: %v", err)
	}
	want := "# telemetry scope=dc0 every=100 evicted=0\ntick,done_total\n100,2\n200,5\n"
	if sb.String() != want {
		t.Fatalf("CSV mismatch:\ngot:\n%swant:\n%s", sb.String(), want)
	}
}

func TestWriteSamplersJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("done_total", "", func() int64 { return 2 })
	s := NewSampler(r, &Options{SampleEvery: 100, RingCap: 8})
	s.Tick(100)
	var sb strings.Builder
	if err := WriteSamplersJSON(&sb, []ScopedSampler{{Scope: "dc0", S: s}}); err != nil {
		t.Fatalf("WriteSamplersJSON: %v", err)
	}
	var got map[string]struct {
		Every   int64       `json:"every"`
		Columns []string    `json:"columns"`
		Rows    [][]float64 `json:"rows"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	d := got["dc0"]
	if d.Every != 100 || len(d.Rows) != 1 || d.Rows[0][0] != 100 || d.Rows[0][1] != 2 {
		t.Fatalf("series JSON = %+v", d)
	}
}

func TestServerServesPrometheusAndJSON(t *testing.T) {
	srv := NewServer()
	srv.Publish("sim", sampleShard().Snap)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, `hcsim_done_total{scope="sim"} 12`) {
		t.Fatalf("/metrics:\n%s", out)
	}
	if out := get("/metrics.json"); !strings.Contains(out, `"done_total": 12`) {
		t.Fatalf("/metrics.json:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Fatalf("pprof not mounted")
	}
}

// TestServerConcurrentPublish hammers Publish from several goroutines while
// readers render snapshots — the shared surface between shard owners
// publishing at barriers and the HTTP handlers. Run under -race by `make
// race-telemetry`.
func TestServerConcurrentPublish(t *testing.T) {
	srv := NewServer()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := NewRegistry()
			var n int64
			r.Counter("n_total", "", func() int64 { return n })
			scope := []string{"sim", "cluster", "dc0", "dc1"}[w]
			for i := 0; i < 200; i++ {
				n++
				srv.Publish(scope, r.Snapshot())
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var sb strings.Builder
				_ = WritePrometheus(&sb, srv.shardList()...)
			}
		}()
	}
	wg.Wait()
	var sb strings.Builder
	if err := WritePrometheus(&sb, srv.shardList()...); err != nil {
		t.Fatalf("final render: %v", err)
	}
	if !strings.Contains(sb.String(), "hcsim_n_total") {
		t.Fatalf("published metrics missing:\n%s", sb.String())
	}
}
