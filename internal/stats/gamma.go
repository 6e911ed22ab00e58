package stats

import (
	"fmt"
	"math"
)

// Gamma draws one sample from a Gamma(shape, scale) distribution using the
// Marsaglia–Tsang squeeze method (2000), the standard rejection sampler for
// shape >= 1, with the usual boosting trick for shape < 1.
//
// The paper builds every PET entry by drawing 500 samples from a gamma
// distribution whose mean equals the benchmark-derived mean execution time
// and whose shape is picked uniformly from [1, 20]; this sampler is the
// foundation of that pipeline.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("stats: Gamma requires positive parameters, got shape=%v scale=%v", shape, scale))
	}
	if shape < 1 {
		// Boost: if X ~ Gamma(shape+1) then X * U^(1/shape) ~ Gamma(shape).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9.0*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1.0 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1.0-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1.0-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// GammaMeanShape draws a Gamma variate parameterized by its mean and shape
// (scale = mean/shape). This is the parameterization the paper uses: a
// task-type/machine pair has a known mean execution time and a randomly
// chosen shape in [1, 20].
func (r *RNG) GammaMeanShape(mean, shape float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("stats: GammaMeanShape requires positive mean, got %v", mean))
	}
	return r.Gamma(shape, mean/shape)
}

// GammaSamples draws n Gamma(mean, shape) samples.
func (r *RNG) GammaSamples(n int, mean, shape float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.GammaMeanShape(mean, shape)
	}
	return out
}

// GammaRate draws inter-arrival gaps for the workload generator: a gamma
// distribution with the given mean and a variance equal to varFrac * mean
// (the paper uses variance = 10% of the mean except in the Fig. 9 study).
// For a gamma distribution, variance = mean^2/shape, so
// shape = mean^2/variance = mean/varFrac.
func (r *RNG) GammaRate(mean, varFrac float64) float64 {
	if varFrac <= 0 {
		return mean // degenerate: deterministic arrivals
	}
	variance := varFrac * mean
	shape := mean * mean / variance
	return r.GammaMeanShape(mean, shape)
}
