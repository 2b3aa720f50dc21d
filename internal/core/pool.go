package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// pool.go implements TuplePool, a size-classed freelist for the per-task
// tuple buffers: kmerOut (the two generation slots), the in-RAM receive
// buffer and the spill's run builders (which also back the merge blocks). The daemon's job manager owns one
// pool and threads it through every job's Config, so back-to-back jobs
// reuse the multi-GB slices instead of reallocating (and re-faulting) them.
//
// Reuse is safe without zeroing: every range the pipeline reads is written
// first in the same pass (TestTuplePoolPoisonedBuffers runs every memory
// shape on all-ones garbage).
//   - KmerGen fills each round's [0, gl.total) of its generation slot
//     exactly (the cursor-vs-limit verification enforces it), and the
//     exchange ships exactly those counts.
//   - The receive buffer's (bin, source) slots tile [0, pass total): open
//     derives their extents from the chunk histograms, and receive
//     scatters a tuple into a slot only after checking that the slot has
//     room. The per-source totals match the index and no slot overflows,
//     so every slot ends exactly full.
//   - A spill run builder is sorted and written only over its filled
//     prefix.
//   - While a pass merges, the builders back its merge blocks (spill.go's
//     carve): each (thread, run, slot) block is a fixed view into them, and
//     a block is read only after its segment reader has decoded a block
//     into it — decoding sets the block's length from the block's own
//     count and writes every tuple of it — so whatever a builder held
//     before, sorted runs or another job's garbage, is never read.
//
// A buffer goes back to the pool only once nothing can read it: kmerOut and
// the receive buffer when the task's passes end (the last exchange's
// barrier has drained every zero-copy view of kmerOut), the run builders
// when the last pass's merge sources have closed — each close joins its
// segment readers' decode goroutines, so no decode is still writing into a
// carved block.

// poolClassLimit caps retained buffers per size class; beyond it, put drops
// the buffer for the GC so an unusually large one-off job cannot pin its
// footprint forever.
const poolClassLimit = 4

// TuplePool recycles tuple buffers across pipeline runs. The zero value is
// not usable; create one with NewTuplePool. All methods are safe for
// concurrent use — the daemon's worker pool runs jobs in parallel against
// one shared pool.
type TuplePool struct {
	mu sync.Mutex
	// free[wide][class] holds retained buffers whose capacity is exactly
	// 2^class tuples (requests round up to the class size, so any buffer
	// in a class satisfies any request mapped to it).
	free [2]map[int][]*tupleBuf

	hits, misses atomic.Uint64
}

// NewTuplePool creates an empty pool.
func NewTuplePool() *TuplePool {
	p := &TuplePool{}
	p.free[0] = make(map[int][]*tupleBuf)
	p.free[1] = make(map[int][]*tupleBuf)
	return p
}

// poolClass maps a tuple count to its size class: the exponent of the next
// power of two (so class capacity is at most 2× the request).
func poolClass(n uint64) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(n - 1)
}

// get returns a buffer with at least n tuples of capacity, sliced to
// exactly n, reusing a pooled buffer of the same class when one exists.
func (p *TuplePool) get(n uint64, wide bool) *tupleBuf {
	cls := poolClass(n)
	w := 0
	if wide {
		w = 1
	}
	p.mu.Lock()
	list := p.free[w][cls]
	if len(list) > 0 {
		b := list[len(list)-1]
		p.free[w][cls] = list[:len(list)-1]
		p.mu.Unlock()
		p.hits.Add(1)
		b.lo = b.lo[:n]
		b.val = b.val[:n]
		if wide {
			b.hi = b.hi[:n]
		}
		return b
	}
	p.mu.Unlock()
	p.misses.Add(1)
	// Allocate at the full class capacity so the buffer can serve every
	// future request in its class.
	b := newTupleBuf(uint64(1)<<cls, wide)
	b.lo = b.lo[:n]
	b.val = b.val[:n]
	if wide {
		b.hi = b.hi[:n]
	}
	return b
}

// put returns a buffer to the pool. The caller must no longer reference
// the buffer or any view into it.
func (p *TuplePool) put(b *tupleBuf) {
	if b == nil {
		return
	}
	// Restore full class capacity; drop odd-sized buffers (not allocated
	// by this pool) rather than retain a class lie.
	c := uint64(cap(b.lo))
	if c == 0 || c != uint64(1)<<poolClass(c) {
		return
	}
	b.lo = b.lo[:c]
	b.val = b.val[:c]
	w := 0
	if b.hi != nil {
		b.hi = b.hi[:c]
		w = 1
	}
	cls := poolClass(c)
	p.mu.Lock()
	if len(p.free[w][cls]) < poolClassLimit {
		p.free[w][cls] = append(p.free[w][cls], b)
	}
	p.mu.Unlock()
}

// Hits and Misses report how many buffer acquisitions were served from the
// pool versus freshly allocated — the daemon surfaces them in its stats.
func (p *TuplePool) Hits() uint64   { return p.hits.Load() }
func (p *TuplePool) Misses() uint64 { return p.misses.Load() }

// acquireTupleBuf allocates (or, with a pool, reuses) an n-tuple buffer.
func (c Config) acquireTupleBuf(n uint64, wide bool) *tupleBuf {
	if c.Pool != nil {
		return c.Pool.get(n, wide)
	}
	return newTupleBuf(n, wide)
}

// releaseTupleBuf returns a buffer to the configured pool, if any.
func (c Config) releaseTupleBuf(b *tupleBuf) {
	if c.Pool != nil {
		c.Pool.put(b)
	}
}
