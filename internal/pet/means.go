package pet

import "taskprune/internal/stats"

// This file synthesizes the mean-execution-time matrices that seed PET
// profiling.
//
// Substitution note (see DESIGN.md §5): the paper seeds its PET with the
// mean runtimes of twelve SPECint benchmarks measured on eight named
// physical machines. Those per-machine SPEC tables are not redistributable,
// so we synthesize a fixed 12×8 matrix with the two properties the paper
// actually relies on: (1) means lie in the stated 50–200 ms range, and
// (2) the matrix is *inconsistently* heterogeneous — machine A beats
// machine B on some task types and loses on others, so no machine
// dominates.

// SPECNumTypes and SPECNumMachines give the dimensions of the paper's main
// evaluation PET.
const (
	SPECNumTypes    = 12
	SPECNumMachines = 8
)

// specSeed fixes the synthesized SPEC-like matrix across all builds.
const specSeed = 0x5EC1

// SPECLikeMeans returns the checked 12×8 matrix of mean execution times (in
// ticks ≈ ms) used by every main-workload experiment. The matrix is
// generated once from a fixed seed: each task type has a base cost in
// [50, 200], each machine a consistent speed factor in [0.7, 1.4], and each
// cell an affinity factor in [0.55, 1.8] that injects inconsistent
// heterogeneity (GPU-like machines excelling at some types and struggling
// at others). Results are clamped back into [50, 200] ticks... the paper's
// stated range for task-type mean execution times.
func SPECLikeMeans() [][]float64 {
	return SyntheticMeans(SPECNumTypes, SPECNumMachines, specSeed)
}

// SyntheticMeans generalizes SPECLikeMeans to an arbitrary fleet shape: a
// types×machines matrix with the same generation recipe (base costs in
// [50, 200], machine speed factors in [0.7, 1.4], per-cell affinities in
// [0.55, 1.8], clamped back into [50, 200]) seeded by the caller, so serve
// configs can declare fleets of any size that keep the paper's
// inconsistent-heterogeneity property. SyntheticMeans(12, 8, 0x5EC1) is
// SPECLikeMeans exactly. Both dimensions must be positive.
func SyntheticMeans(types, machines int, seed int64) [][]float64 {
	if types < 1 || machines < 1 {
		panic("pet: SyntheticMeans needs positive dimensions")
	}
	rng := stats.NewRNG(seed)
	base := make([]float64, types)
	for i := range base {
		base[i] = rng.UniformRange(50, 200)
	}
	speed := make([]float64, machines)
	for j := range speed {
		speed[j] = rng.UniformRange(0.7, 1.4)
	}
	means := make([][]float64, types)
	for i := range means {
		means[i] = make([]float64, machines)
		for j := range means[i] {
			affinity := rng.UniformRange(0.55, 1.8)
			v := base[i] * speed[j] * affinity
			if v < 50 {
				v = 50
			}
			if v > 200 {
				v = 200
			}
			means[i][j] = v
		}
	}
	return means
}

// VideoMeans returns the 4×4 mean matrix for the video-transcoding
// workload. Substitution for the paper's 660-video trace (dead link): the
// affinities follow the measurements reported by Li et al. (the paper's
// refs [2], [23]) — compute-heavy transcodes (codec change, resolution
// scaling of slow-motion content) benefit strongly from the GPU VM, while
// memory/IO-bound operations (bitrate, framerate adjustment) run best on
// CPU/memory-optimized VMs and gain little from the GPU.
func VideoMeans() [][]float64 {
	return [][]float64{
		// cpu-opt, mem-opt, general, gpu        (ticks ≈ ms)
		{120, 150, 140, 60}, // resolution: GPU-friendly
		{160, 180, 170, 70}, // codec: strongly GPU-friendly
		{80, 65, 90, 110},   // bitrate: memory-bound, GPU overhead hurts
		{70, 75, 85, 100},   // framerate: CPU-friendly
	}
}
