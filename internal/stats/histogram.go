package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width binning of real-valued samples. The PET
// builder turns 500 gamma execution-time samples into a histogram and the
// histogram into a discrete PMF, mirroring the paper's offline profiling
// step ("modeling them via a histogram in an offline manner").
type Histogram struct {
	Origin float64   // left edge of bin 0
	Width  float64   // bin width (> 0)
	Counts []float64 // per-bin counts (float to allow weighting)
	Total  float64   // sum of all counts
}

// NewHistogram creates an empty histogram with nbins bins of the given
// width starting at origin.
func NewHistogram(origin, width float64, nbins int) *Histogram {
	if width <= 0 {
		panic(fmt.Sprintf("stats: histogram width must be positive, got %v", width))
	}
	if nbins <= 0 {
		panic(fmt.Sprintf("stats: histogram needs at least one bin, got %d", nbins))
	}
	return &Histogram{Origin: origin, Width: width, Counts: make([]float64, nbins)}
}

// HistogramFromSamples builds a histogram that spans [min(samples),
// max(samples)] with the requested number of bins. Degenerate inputs
// (all-equal samples) produce a single-bin histogram.
func HistogramFromSamples(samples []float64, nbins int) *Histogram {
	if len(samples) == 0 {
		panic("stats: HistogramFromSamples with no samples")
	}
	lo, hi := MinMax(samples)
	if hi == lo {
		// Degenerate input: one bin centered exactly on the common value.
		h := NewHistogram(lo-0.5, 1, 1)
		for range samples {
			h.Counts[0]++
			h.Total++
		}
		return h
	}
	width := (hi - lo) / float64(nbins)
	h := NewHistogram(lo, width, nbins)
	for _, s := range samples {
		h.Add(s, 1)
	}
	return h
}

// Add records a sample with the given weight. Samples outside the bin range
// are clamped into the first or last bin so no mass is lost.
func (h *Histogram) Add(x, weight float64) {
	idx := int(math.Floor((x - h.Origin) / h.Width))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx] += weight
	h.Total += weight
}

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Origin + (float64(i)+0.5)*h.Width
}
