package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1 denominator) sample variance of xs.
// It returns 0 for fewer than two observations.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// PopVariance returns the population (n denominator) variance of xs.
func PopVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// BoundSkewness clamps a skewness value into [-1, 1], the "bounded
// skewness" s of the paper: |S| >= 1 is considered highly skewed, so the
// per-task threshold adjustment saturates there.
func BoundSkewness(s float64) float64 {
	switch {
	case s > 1:
		return 1
	case s < -1:
		return -1
	case math.IsNaN(s):
		return 0
	default:
		return s
	}
}

// MinMax returns the smallest and largest values in xs. It panics on an
// empty slice because no sensible zero exists for both bounds at once.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
