package telemetry

import (
	"strings"
	"testing"
	"time"
)

// A nil registry must hand out nil handles whose every method is a no-op,
// and must never call a counter's read function — the
// zero-cost-when-disabled contract the hot paths rely on.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("a", "", func() int64 { t.Fatal("nil registry read a counter"); return 0 })
	g := r.Gauge("b", "")
	h := r.Histogram("c", "", []float64{1, 2})
	if g != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil handles: %v %v", g, h)
	}
	g.Set(3)
	h.Observe(1.5)
	if g.Value() != 0 {
		t.Fatalf("nil gauge accumulated state")
	}
	if names := r.ScalarNames(); names != nil {
		t.Fatalf("nil registry has scalar names %v", names)
	}
	snap := r.Snapshot()
	if len(snap.Scalars) != 0 || len(snap.Hists) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var s *Sampler
	s.Tick(100)
	s.Flush(100)
	if s.Len() != 0 || s.Columns() != nil || s.Every() != 0 || s.Evicted() != 0 {
		t.Fatalf("nil sampler accumulated state")
	}
	var pt *PhaseTimer
	pt.Observe(PhaseEval, pt.Start())
	pt.Merge(NewPhaseTimer())
	if pt.Breakdown() != nil {
		t.Fatalf("nil phase timer has a breakdown")
	}
	if err := pt.WriteText(&strings.Builder{}); err != nil {
		t.Fatalf("nil WriteText: %v", err)
	}
}

// A counter is a read of its owner's store: every snapshot reads the
// store's current value, with no sample boundary in between.
func TestScalarSemantics(t *testing.T) {
	r := NewRegistry()
	done := 5
	r.Counter("done_total", "finished things", func() int64 { return int64(done) })
	g := r.Gauge("depth", "queue depth")
	g.Set(5)
	if g.Value() != 5 {
		t.Fatalf("gauge = %v, want 5", g.Value())
	}
	snap := r.Snapshot()
	if len(snap.Scalars) != 2 || snap.Scalars[0].Name != "done_total" || snap.Scalars[0].Kind != KindCounter ||
		snap.Scalars[0].Value != 5 || snap.Scalars[1].Kind != KindGauge || snap.Scalars[1].Value != 5 {
		t.Fatalf("snapshot = %+v", snap.Scalars)
	}
	done = 42
	if v := r.Snapshot().Scalars[0].Value; v != 42 {
		t.Fatalf("counter read %v after its store moved to 42", v)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "", func() int64 { return 0 })
	r.Gauge("x", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lag", "", []float64{10, 25, 50})
	for _, v := range []float64{0, 10, 10.5, 25, 49, 50, 51, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hv := snap.Hists[0]
	// v <= bound lands in that bucket: {0,10} | {10.5,25} | {49,50} | {51,1000}
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, hv.Counts[i], w, hv.Counts)
		}
	}
	if hv.Count != 8 || hv.Sum != 0+10+10.5+25+49+50+51+1000 {
		t.Fatalf("count %d sum %v", hv.Count, hv.Sum)
	}
}

func TestSamplerBoundariesAndFlush(t *testing.T) {
	r := NewRegistry()
	var events int64
	r.Counter("events_total", "", func() int64 { return events })
	prepared := 0
	s := NewSampler(r, &Options{SampleEvery: 100, RingCap: 8})
	s.Prepare = func() { prepared++ }
	events++
	s.Tick(50) // before the first boundary: no row
	if s.Len() != 0 {
		t.Fatalf("row recorded before the first boundary")
	}
	events++
	s.Tick(250) // crosses 100 and 200
	if s.Len() != 2 || prepared != 2 {
		t.Fatalf("len=%d prepared=%d, want 2,2", s.Len(), prepared)
	}
	if row := s.Row(0); row[0] != 100 || row[1] != 2 {
		t.Fatalf("row 0 = %v, want [100 2]", row)
	}
	if row := s.Row(1); row[0] != 200 {
		t.Fatalf("row 1 tick = %v, want 200", row[0])
	}
	s.Flush(275) // final off-boundary row
	if s.Len() != 3 || s.Row(2)[0] != 275 {
		t.Fatalf("flush: len=%d last=%v", s.Len(), s.Row(s.Len()-1))
	}
	s.Flush(275) // idempotent: a row for 275 already exists
	if s.Len() != 3 {
		t.Fatalf("second flush duplicated the row: len=%d", s.Len())
	}
	cols := s.Columns()
	if len(cols) != 2 || cols[0] != "tick" || cols[1] != "events_total" {
		t.Fatalf("columns = %v", cols)
	}
}

func TestSamplerFlushOnBoundaryRecordsOnce(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", func() int64 { return 0 })
	s := NewSampler(r, &Options{SampleEvery: 100, RingCap: 8})
	s.Flush(200) // crosses 100 and 200; the 200 row must not double
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2 (rows at 100 and 200)", s.Len())
	}
	if s.Row(1)[0] != 200 {
		t.Fatalf("last row tick = %v", s.Row(1)[0])
	}
}

func TestSamplerRingBound(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total", "", func() int64 { return 1 })
	s := NewSampler(r, &Options{SampleEvery: 10, RingCap: 4})
	s.Tick(100) // 10 boundaries → 10 rows, 4 retained
	if s.Len() != 4 || s.Evicted() != 6 {
		t.Fatalf("len=%d evicted=%d, want 4,6", s.Len(), s.Evicted())
	}
	if s.Row(0)[0] != 70 || s.Row(3)[0] != 100 {
		t.Fatalf("ring kept [%v..%v], want [70..100]", s.Row(0)[0], s.Row(3)[0])
	}
}

func TestSamplerOnSampleHook(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", func() int64 { return 0 })
	s := NewSampler(r, &Options{SampleEvery: 50, RingCap: 4})
	var ticks []int64
	s.OnSample = func(tick int64) { ticks = append(ticks, tick) }
	s.Tick(120)
	if len(ticks) != 2 || ticks[0] != 50 || ticks[1] != 100 {
		t.Fatalf("OnSample ticks = %v", ticks)
	}
}

func TestPhaseTimer(t *testing.T) {
	pt := NewPhaseTimer()
	t0 := pt.Start()
	time.Sleep(time.Millisecond)
	pt.Observe(PhaseEval, t0)
	other := NewPhaseTimer()
	o0 := other.Start()
	other.Observe(PhaseConvolve, o0)
	pt.Merge(other)
	bd := pt.Breakdown()
	if bd[PhaseEval].Count != 1 || bd[PhaseEval].Total <= 0 {
		t.Fatalf("eval stat = %+v", bd[PhaseEval])
	}
	if bd[PhaseConvolve].Count != 1 {
		t.Fatalf("merge lost the convolve span: %+v", bd[PhaseConvolve])
	}
	var sb strings.Builder
	if err := pt.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(sb.String(), "eval") || !strings.Contains(sb.String(), "phase timings") {
		t.Fatalf("WriteText output:\n%s", sb.String())
	}
}
