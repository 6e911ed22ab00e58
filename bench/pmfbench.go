package main

import (
	"sort"
	"time"

	"taskprune/internal/pet"
	"taskprune/internal/pmf"
	"taskprune/internal/task"
)

// sink keeps the compiler from discarding the measured calls.
var sink float64

// pmfBench times the PMF kernels the mapper and dispatcher call most, on
// PET-shaped inputs: a machine-0 queue tail of three SPEC executions,
// compacted as the mapper compacts it, and the next task's execution PMF.
func pmfBench(matrix *pet.Matrix) map[string]float64 {
	// Inputs live on the heap (a nil arena); the timed calls use an arena
	// reset per call, as one mapping event does.
	var heap *pmf.Arena
	tail := heap.Impulse(0)
	for ty := 0; ty < 3; ty++ {
		tail = heap.Compact(heap.Convolve(tail, matrix.PMF(task.Type(ty), 0)), pmf.DefaultMaxImpulses)
	}
	exec, prof := matrix.PMF(3, 0), matrix.Profile(3, 0)
	wide := heap.Convolve(tail, exec)
	deadline := int64(tail.Mean() + exec.Mean())
	mid := exec.Start() + int64(exec.Len()/2)

	a := pmf.NewArena()
	return map[string]float64{
		"pmf.convolve_ns": nsPerOp(func() {
			a.Reset()
			sink += a.Convolve(tail, exec).Mean()
		}),
		"pmf.compact_ns": nsPerOp(func() {
			a.Reset()
			sink += float64(a.Compact(wide, pmf.DefaultMaxImpulses).Len())
		}),
		"pmf.dropeval_ns": nsPerOp(func() {
			s, e := pmf.DropEval(tail, prof, deadline, pmf.Evict)
			sink += s + e
		}),
		"pmf.cond_mean_shifted_ns": nsPerOp(func() {
			sink += pmf.CondMeanShifted(exec, 0, mid)
		}),
	}
}

// nsPerOp returns the median over 15 batches of op's mean time, each batch
// sized to take about a millisecond.
func nsPerOp(op func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if time.Since(t0) >= time.Millisecond {
			break
		}
		n *= 2
	}
	per := make([]float64, 15)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}
