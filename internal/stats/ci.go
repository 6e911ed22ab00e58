package stats

import "math"

// tCritical95 holds two-sided 95% Student-t critical values indexed by
// degrees of freedom (index 0 unused). Values beyond the table fall back to
// the normal approximation 1.960. The paper reports the mean and 95%
// confidence interval of 30 workload trials (df = 29 -> 2.045).
var tCritical95 = []float64{
	math.NaN(),
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	2.040, 2.037, 2.035, 2.032, 2.030, 2.028, 2.026, 2.024, 2.023, 2.021,
}

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom.
func TCritical95(df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if df < len(tCritical95) {
		return tCritical95[df]
	}
	return 1.960
}

// CI is a symmetric confidence interval around a sample mean.
type CI struct {
	Mean     float64 // sample mean
	HalfSpan float64 // half-width of the interval; Mean +/- HalfSpan
	N        int     // number of observations
}

// Confidence95 computes the mean and two-sided 95% Student-t confidence
// interval of xs. With fewer than two observations the half-span is zero.
func Confidence95(xs []float64) CI {
	n := len(xs)
	ci := CI{Mean: Mean(xs), N: n}
	if n < 2 {
		return ci
	}
	sem := StdDev(xs) / math.Sqrt(float64(n))
	ci.HalfSpan = TCritical95(n-1) * sem
	return ci
}
