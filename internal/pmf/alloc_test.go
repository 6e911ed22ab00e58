package pmf

import (
	"math/rand"
	"testing"
)

// benchPMFs builds a deterministic (tail, exec) pair shaped like the hot
// path: a compacted queue tail (sparse impulses over a wide dense support)
// and a PET-like execution profile.
func benchPMFs() (tail, exec *PMF) {
	r := rand.New(rand.NewSource(42))
	wide := make([]float64, 600)
	for i := 0; i < 120; i++ {
		wide[r.Intn(len(wide))] = r.Float64()
	}
	tail = New(100, wide)
	tail.Normalize()
	tail = heap.Compact(tail, DefaultMaxImpulses)

	ex := make([]float64, 300)
	for i := 0; i < 64; i++ {
		ex[r.Intn(len(ex))] = r.Float64()
	}
	exec = New(5, ex)
	exec.Normalize()
	exec = heap.Compact(exec, DefaultMaxImpulses)
	return tail, exec
}

// TestArenaConvolveDropAllocFree: the arena path — one ConvolveDrop +
// Compact cycle per Reset, the shape of a mapping-event commit — must be
// allocation-free once the arena holds its block.
func TestArenaConvolveDropAllocFree(t *testing.T) {
	tail, exec := benchPMFs()
	deadline := tail.Start() + 150
	a := NewArena()
	res := a.ConvolveDrop(tail, exec, deadline, Evict)
	_ = a.Compact(res.Free, DefaultMaxImpulses)
	a.Reset() // retains one block: steady state reached
	if n := testing.AllocsPerRun(100, func() {
		r := a.ConvolveDrop(tail, exec, deadline, Evict)
		_ = a.Compact(r.Free, DefaultMaxImpulses)
		a.Reset()
	}); n != 0 {
		t.Errorf("arena ConvolveDrop+Compact allocates %.1f objects per cycle, want 0", n)
	}
}

// TestArenaChainStepAllocFree: the chain step — a tail rebuild's, a
// commit's and MOC's permutation search's link — must be allocation-free
// once the arena holds its block, in every drop mode.
func TestArenaChainStepAllocFree(t *testing.T) {
	tail, exec := benchPMFs()
	deadline := tail.Start() + 150
	a := NewArena()
	for _, mode := range []DropMode{NoDrop, PendingDrop, Evict} {
		_ = a.ChainStep(tail, exec, deadline, mode, DefaultMaxImpulses)
		a.Reset() // retains one block: steady state reached
		if n := testing.AllocsPerRun(100, func() {
			_ = a.ChainStep(tail, exec, deadline, mode, DefaultMaxImpulses)
			a.Reset()
		}); n != 0 {
			t.Errorf("%v: arena ChainStep allocates %.1f objects per cycle, want 0", mode, n)
		}
	}
}

// TestSuccessBoundAllocFree: phase one summarises every machine's tail at
// every mapping event, so Set and Below must not allocate, neither on a
// compacted (sparse) tail nor on a dense one wider than any stack buffer.
func TestSuccessBoundAllocFree(t *testing.T) {
	sparse, execPMF := benchPMFs()
	wide := make([]float64, 300)
	for i := range wide {
		wide[i] = 1
	}
	dense := New(100, wide)
	dense.Normalize()
	if sparse.nz == nil || dense.nz != nil || dense.NumImpulses() <= 64 {
		t.Fatal("premise broken: want a sparse tail and a dense tail of more than 64 impulses")
	}
	exec := NewProfile(execPMF)
	var sb SuccessBound
	for _, tail := range []*PMF{sparse, dense} {
		if n := testing.AllocsPerRun(100, func() {
			sb.Set(tail)
			_ = sb.Below(exec, tail.Start()+150, 0.9)
		}); n != 0 {
			t.Errorf("nz=%v: Set+Below allocates %.1f objects, want 0", tail.nz != nil, n)
		}
	}
}

// TestCloneDeepCopiesSparseIndex: Clone is the documented escape hatch
// for PMFs that must outlive an arena Reset, so it cannot share the
// sparse index backing array — that may live in a pooled arena block.
func TestCloneDeepCopiesSparseIndex(t *testing.T) {
	tail, _ := benchPMFs() // compacted: carries a sparse index
	if tail.nz == nil {
		t.Fatal("premise broken: compacted PMF should carry a sparse index")
	}
	q := tail.Clone()
	if q.nz == nil {
		t.Fatal("clone lost the sparse index")
	}
	if &q.nz[0] == &tail.nz[0] {
		t.Fatal("clone shares the sparse index backing array with the original")
	}
}

// BenchmarkConvolve measures the allocating baseline convolution.
func BenchmarkConvolve(b *testing.B) {
	tail, exec := benchPMFs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		heap.Convolve(tail, exec)
	}
}

// BenchmarkConvolveDrop measures the allocating dropping-aware convolution.
func BenchmarkConvolveDrop(b *testing.B) {
	tail, exec := benchPMFs()
	deadline := tail.Start() + 150
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		heap.ConvolveDrop(tail, exec, deadline, Evict)
	}
}

// BenchmarkConvolveDropArena measures the arena path used by the
// simulator's mapping events (one Reset per iteration, as per event).
func BenchmarkConvolveDropArena(b *testing.B) {
	tail, exec := benchPMFs()
	deadline := tail.Start() + 150
	a := NewArena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := a.ConvolveDrop(tail, exec, deadline, Evict)
		_ = a.Compact(r.Free, DefaultMaxImpulses)
		a.Reset()
	}
}
