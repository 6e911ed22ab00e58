package stats

import (
	"fmt"
	"math"
)

// StreamHist is a bounded-memory streaming histogram of non-negative
// samples (execution durations in ticks). Unlike Histogram, whose range is
// fixed at construction, a StreamHist learns its range as samples arrive:
// it always spans [0, width·nbins), and when a sample lands past the right
// edge the bin width doubles (adjacent bins merging pairwise) until the
// sample fits. The bin count never changes, so memory stays O(nbins) over
// an unbounded stream while no mass is ever clamped into an edge bin the
// way Histogram.Add clamps.
//
// The online PET belief feeds one StreamHist per (task type, machine) cell
// with observed completion durations and periodically converts it into a
// PMF (via Snapshot and pmf.FromHistogram), mirroring the paper's offline
// histogram-profiling step in streaming form.
type StreamHist struct {
	width  float64 // current bin width (0 until the first sample)
	counts []float64
	total  float64
}

// NewStreamHist returns an empty streaming histogram with nbins bins. The
// bin width is chosen by the first sample and doubles as the range grows.
func NewStreamHist(nbins int) *StreamHist {
	if nbins < 2 {
		panic(fmt.Sprintf("stats: StreamHist needs at least two bins, got %d", nbins))
	}
	return &StreamHist{counts: make([]float64, nbins)}
}

// Add records one sample. Negative and non-finite samples panic: durations
// are positive by construction, so such a sample is a caller bug.
func (h *StreamHist) Add(x float64) {
	if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("stats: StreamHist sample must be finite and non-negative, got %v", x))
	}
	if h.width == 0 {
		// First sample sets the scale: place it around the middle of the
		// range so early streams grow in either direction without an
		// immediate cascade of doublings. Width is at least 1 — durations
		// are integer ticks, so finer bins cannot separate anything.
		h.width = math.Max(1, math.Ceil(2*x/float64(len(h.counts))))
	}
	for x >= h.width*float64(len(h.counts)) {
		h.double()
	}
	idx := int(x / h.width)
	if idx >= len(h.counts) { // float rounding at the right edge
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.total++
}

// double merges adjacent bin pairs, doubling the width and halving the
// resolution while keeping the span's left edge at zero.
func (h *StreamHist) double() {
	n := len(h.counts)
	for i := 0; i < n/2; i++ {
		h.counts[i] = h.counts[2*i] + h.counts[2*i+1]
	}
	if n%2 == 1 {
		h.counts[n/2] = h.counts[n-1]
		for i := n/2 + 1; i < n; i++ {
			h.counts[i] = 0
		}
	} else {
		for i := n / 2; i < n; i++ {
			h.counts[i] = 0
		}
	}
	h.width *= 2
}

// Count returns how many samples were added.
func (h *StreamHist) Count() int64 { return int64(h.total) }

// Snapshot returns the current binning as a fixed-range Histogram (counts
// copied), ready for pmf.FromHistogram. It panics on an empty histogram —
// there is no distribution to snapshot yet.
func (h *StreamHist) Snapshot() *Histogram {
	if h.total == 0 {
		panic("stats: Snapshot of an empty StreamHist")
	}
	out := NewHistogram(0, h.width, len(h.counts))
	copy(out.Counts, h.counts)
	out.Total = h.total
	return out
}
