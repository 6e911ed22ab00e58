package stats

import (
	"math"
	"testing"
)

func TestStreamHistGrowsByDoubling(t *testing.T) {
	h := NewStreamHist(4)
	h.Add(4) // width = ceil(2*4/4) = 2, span [0,8)
	if h.width != 2 {
		t.Fatalf("first-sample width %v, want 2", h.width)
	}
	h.Add(31) // needs span > 31: 8 → 16 → 32, width 8
	if h.width != 8 {
		t.Fatalf("width after growth %v, want 8", h.width)
	}
	// No sample lost in the merges.
	if h.Count() != 2 {
		t.Fatalf("count %d, want 2", h.Count())
	}
	var total float64
	for _, c := range h.counts {
		total += c
	}
	if total != 2 {
		t.Fatalf("binned mass %v, want 2", total)
	}
}

func TestStreamHistSmallWidthFloor(t *testing.T) {
	h := NewStreamHist(16)
	h.Add(0.5) // 2*0.5/16 < 1: width floors at 1 (durations are ticks)
	if h.width != 1 {
		t.Fatalf("width %v, want the 1-tick floor", h.width)
	}
}

func TestStreamHistSnapshot(t *testing.T) {
	h := NewStreamHist(8)
	for _, v := range []float64{2, 2, 6, 10} {
		h.Add(v)
	}
	s := h.Snapshot()
	if s.Origin != 0 || s.Width != h.width || len(s.Counts) != 8 {
		t.Fatalf("snapshot shape origin=%v width=%v bins=%d", s.Origin, s.Width, len(s.Counts))
	}
	if s.Total != 4 {
		t.Fatalf("snapshot total %v, want 4", s.Total)
	}
	// The snapshot owns its counts: mutating it must not touch the stream.
	s.Counts[0] = 99
	if h.counts[0] == 99 {
		t.Fatal("snapshot shares the live counts slice")
	}
}

func TestStreamHistPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"one bin":  func() { NewStreamHist(1) },
		"negative": func() { NewStreamHist(8).Add(-1) },
		"NaN":      func() { NewStreamHist(8).Add(math.NaN()) },
		"empty snapshot": func() {
			NewStreamHist(8).Snapshot()
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStreamHistOddBinMerge(t *testing.T) {
	h := NewStreamHist(5) // odd bin count: the unpaired last bin carries over
	h.Add(2)              // width 1, span [0,5)
	h.Add(4)              // still in span, bin 4
	h.Add(9)              // forces a doubling to width 2, span [0,10)
	if h.width != 2 {
		t.Fatalf("width %v, want 2", h.width)
	}
	var total float64
	for _, c := range h.counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("binned mass %v after odd merge, want 3", total)
	}
}
