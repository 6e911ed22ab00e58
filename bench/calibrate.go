package main

import (
	"slices"
	"time"
)

// calibrationNominal is calibrate's time on the reference machine
// (bench/README.md) when no neighbour contends for its core.
const calibrationNominal = 900 * time.Microsecond

// calibrationKeys is what the sorting half of calibrate sorts: fixed
// pseudo-random values, copied into calibrationBuf so that calibrating
// allocates nothing.
var calibrationKeys, calibrationBuf = func() (keys, buf []float64) {
	keys = make([]float64, 2048)
	x := uint64(12345)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = float64(x % 100_000)
	}
	return keys, make([]float64, len(keys))
}()

// calibrate times a fixed piece of work that shares no code with the
// repository, so no change to the program can speed it up. Neighbours on a
// shared host can slow this core down twofold for minutes; the ratio of
// calibrate's time to calibrationNominal measures by how much, and the
// benchmark divides the host times it reports (batch gaps, serve latencies,
// set-up) by it. The calibrations are interleaved with the measured work
// and never timed as part of it. Half of the work is floating-point
// multiply-adds, which such contention slows more than it slows the
// simulator, and half is sorting, which it slows less; together they track
// the simulator closely.
func calibrate() time.Duration {
	t0 := time.Now()
	var a, b [96]float64
	for i := range a {
		a[i] = float64(i%7) * 0.1
		b[i] = float64(i%5) * 0.2
	}
	var out [191]float64
	for r := 0; r < 64; r++ {
		for i, x := range a {
			for j, y := range b {
				out[i+j] += x * y
			}
		}
		a[r%len(a)] = out[r]
	}
	sink += out[95]
	for r := 0; r < 4; r++ {
		copy(calibrationBuf, calibrationKeys)
		slices.Sort(calibrationBuf)
	}
	sink += calibrationBuf[len(calibrationBuf)/2]
	return time.Since(t0)
}

// hostFactor is how much slower than the reference machine this core runs
// right now: the faster of two calibrations against calibrationNominal.
func hostFactor() float64 {
	return float64(min(calibrate(), calibrate())) / float64(calibrationNominal)
}
