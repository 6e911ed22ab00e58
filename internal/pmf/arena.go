package pmf

import "sync"

// arenaBlockFloats is the float64 capacity of one pooled arena block
// (512 KiB). Simulator PMF supports span at most a few thousand ticks, so
// one block serves many scratch distributions between resets.
const arenaBlockFloats = 65536

// hdrSlabLen is how many PMF headers one arena slab holds.
const hdrSlabLen = 512

// blockPool recycles arena blocks across arenas and goroutines, so a
// parallel trial runner reaches a steady state with no per-trial block
// allocation.
var blockPool = sync.Pool{
	New: func() any {
		b := make([]float64, arenaBlockFloats)
		return &b
	},
}

// arenaBlockInts is the int32 capacity of one pooled offset block.
const arenaBlockInts = 16384

// intBlockPool recycles offset blocks (sparse non-zero indexes).
var intBlockPool = sync.Pool{
	New: func() any {
		b := make([]int32, arenaBlockInts)
		return &b
	},
}

// Arena is a bump allocator for convolution scratch: mass buffers and PMF
// headers are carved out of pooled blocks and reclaimed wholesale by Reset.
// The simulator owns one arena per trial and resets it at every mapping
// event, which removes per-convolution heap traffic from the hot path.
//
// Ownership contract: every PMF or slice obtained from an arena is only
// valid until the next Reset. Callers must never retain arena-backed
// buffers across a Reset — copy (Clone) anything that outlives the event.
//
// A nil *Arena is valid and falls back to ordinary heap allocation, so
// arena-aware code paths need no branching at call sites.
//
// An Arena is not safe for concurrent use; give each goroutine its own.
type Arena struct {
	blocks []*[]float64 // in-use mass blocks; the last one is current
	off    int          // bump offset into the current block

	hdrs   []PMF // current header slab, rewound (not freed) by Reset
	hdrOff int

	iblocks []*[]int32 // in-use offset blocks; the last one is current
	ioff    int

	// maxBlocks is the high-water mark of simultaneously held mass blocks —
	// how deep one mapping event's convolution scratch ever got. Reset
	// keeps it, so the trial-level peak survives for telemetry.
	maxBlocks int
}

// NewArena returns an empty arena. Blocks are drawn lazily from a shared
// pool on first use.
func NewArena() *Arena { return &Arena{} }

// Floats returns a zeroed scratch slice of length n carved from the arena
// (or from the heap for a nil arena or an oversized request). The slice is
// valid until the next Reset.
func (a *Arena) Floats(n int) []float64 {
	if a == nil || n > arenaBlockFloats {
		return make([]float64, n)
	}
	if len(a.blocks) == 0 || a.off+n > arenaBlockFloats {
		a.blocks = append(a.blocks, blockPool.Get().(*[]float64))
		a.off = 0
		if len(a.blocks) > a.maxBlocks {
			a.maxBlocks = len(a.blocks)
		}
	}
	blk := *a.blocks[len(a.blocks)-1]
	buf := blk[a.off : a.off+n : a.off+n]
	a.off += n
	clear(buf)
	return buf
}

// ints returns an uninitialized int32 scratch slice of length 0 and
// capacity n from the arena (heap for nil or oversized requests), valid
// until the next Reset. Used for sparse non-zero offset lists.
func (a *Arena) ints(n int) []int32 {
	if a == nil || n > arenaBlockInts {
		return make([]int32, 0, n)
	}
	if len(a.iblocks) == 0 || a.ioff+n > arenaBlockInts {
		a.iblocks = append(a.iblocks, intBlockPool.Get().(*[]int32))
		a.ioff = 0
	}
	blk := *a.iblocks[len(a.iblocks)-1]
	buf := blk[a.ioff : a.ioff : a.ioff+n]
	a.ioff += n
	return buf
}

// hdr returns a zeroed PMF header owned by the arena (heap for nil).
func (a *Arena) hdr() *PMF {
	if a == nil {
		return &PMF{}
	}
	if a.hdrOff == len(a.hdrs) {
		// A fresh slab. The previous slab (if any) stays alive through the
		// pointers already handed out and is collected with them.
		a.hdrs = make([]PMF, hdrSlabLen)
		a.hdrOff = 0
	}
	p := &a.hdrs[a.hdrOff]
	a.hdrOff++
	*p = PMF{}
	return p
}

// wrap adopts probs into an arena-owned PMF header, trimming zero edges
// exactly like the package-level wrap.
func (a *Arena) wrap(start int64, probs []float64) *PMF {
	return a.wrapTo(start, probs, len(probs))
}

// wrapTo is wrap for a buffer known to hold no mass from index end on: the
// trailing trim starts at end instead of at the buffer's end, and the
// result is the same.
func (a *Arena) wrapTo(start int64, probs []float64, end int) *PMF {
	lo, hi := 0, end
	for lo < hi && probs[lo] == 0 {
		lo++
	}
	for hi > lo && probs[hi-1] == 0 {
		hi--
	}
	if lo == hi {
		lo, hi = len(probs), len(probs) // no mass: the start a full scan gives
	}
	p := a.hdr()
	p.start = start + int64(lo)
	p.probs = probs[lo:hi]
	return p
}

// Impulse returns an arena-owned PMF with all mass at tick t.
func (a *Arena) Impulse(t int64) *PMF {
	buf := a.Floats(1)
	buf[0] = 1
	p := a.hdr()
	p.start = t
	p.probs = buf
	return p
}

// Clone returns an arena-owned deep copy of p.
func (a *Arena) Clone(p *PMF) *PMF {
	q := a.hdr()
	if p.IsZero() {
		return q
	}
	q.start = p.start
	q.probs = a.Floats(len(p.probs))
	copy(q.probs, p.probs)
	return q
}

// HighWater returns the peak number of mass blocks the arena ever held at
// once (512 KiB each) — a measure of the deepest convolution scratch any
// mapping event needed. Nil-safe; Reset does not clear it.
func (a *Arena) HighWater() int {
	if a == nil {
		return 0
	}
	return a.maxBlocks
}

// Reset reclaims every buffer and header handed out since the previous
// Reset. One mass block is kept hot; the rest return to the shared pool.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for len(a.blocks) > 1 {
		last := len(a.blocks) - 1
		blockPool.Put(a.blocks[last])
		a.blocks[last] = nil
		a.blocks = a.blocks[:last]
	}
	for len(a.iblocks) > 1 {
		last := len(a.iblocks) - 1
		intBlockPool.Put(a.iblocks[last])
		a.iblocks[last] = nil
		a.iblocks = a.iblocks[:last]
	}
	a.off = 0
	a.ioff = 0
	a.hdrOff = 0
}
