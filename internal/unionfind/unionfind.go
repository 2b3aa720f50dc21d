// Package unionfind implements the concurrent disjoint-set structure at the
// heart of METAPREP's LocalCC and MergeCC steps (§3.5, Algorithm 1).
//
// The design follows the paper's combination of Cybenko et al. and Patwary
// et al.:
//
//   - Find uses the path-splitting optimization of Tarjan & van Leeuwen:
//     while walking to the root, each visited node's parent pointer is
//     redirected to its grandparent.
//   - Union uses union-by-index: the root with the lower index is pointed at
//     the root with the higher index, which cannot introduce cycles even
//     when edges are processed concurrently.
//   - Threads proceed without locks. A Union is a single compare-and-swap on
//     a root's parent pointer; a CAS that loses a race is not retried
//     inline — instead the edge is buffered and re-verified on the next
//     iteration of Algorithm 1, exactly the paper's "keep track of the edges
//     resulting in a union operation on each thread and verify them after
//     processing all edges".
//
// Every caller runs its own first round, because the input layouts differ
// (an edge list, a parent array, a delta payload, LocalCC's sorted groups),
// and hands its per-worker retry buffers to Reverify, the one driver of
// Algorithm 1's re-verification rounds. Nothing is counted per operation:
// a DSU built by New has made exactly Len() − Roots() successful unions,
// and the union attempts are the buffer lengths Reverify reports.
//
// All parent-pointer accesses are atomic, so the structure is safe under the
// Go race detector while keeping the paper's synchronization-free structure.
package unionfind

import (
	"sync/atomic"

	"metaprep/internal/par"
)

// DSU is a concurrent disjoint-set (union–find) structure over the vertex
// set {0, …, n-1}. Vertices are reads in the pipeline's read graph.
type DSU struct {
	parent []uint32

	// shadow holds each entry's value as of the previous SnapshotDelta call
	// (the delta epoch baseline). It is allocated lazily on the first
	// SnapshotDelta so DSUs that never ship deltas pay nothing, and it is
	// never touched by the hot Find/Union path.
	shadow []uint32
}

// New returns a DSU with every vertex its own component root.
func New(n int) *DSU {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	return &DSU{parent: p}
}

// NewFromLabels rebuilds a DSU from a flattened label array (as produced by
// Flatten or stored in a partition artifact) and appends extra fresh
// singleton vertices after it. A flattened array is valid parent-pointer
// state — every entry points directly at its component root — so Finds on
// the restored prefix resolve in one hop and new edges union the old
// components with the appended vertices. This is the incremental
// repartitioning seam: base labels reload here, delta reads occupy the
// extra slots.
func NewFromLabels(labels []uint32, extra int) *DSU {
	p := make([]uint32, len(labels)+extra)
	copy(p, labels)
	for i := len(labels); i < len(p); i++ {
		p[i] = uint32(i)
	}
	return &DSU{parent: p}
}

// Len returns the number of vertices.
func (d *DSU) Len() int { return len(d.parent) }

// Roots returns the number of component roots. Each successful Union turns
// exactly one root into a non-root and path splitting rewrites non-roots
// only, so on a DSU built by New, Len() − Roots() is the number of unions
// made, in any thread schedule. Call after concurrent mutation is done.
func (d *DSU) Roots() int {
	n := 0
	for i := range d.parent {
		if atomic.LoadUint32(&d.parent[i]) == uint32(i) {
			n++
		}
	}
	return n
}

// Find returns the root of x's component, applying path splitting along the
// way. It is safe to call concurrently with other Find and Union calls.
func (d *DSU) Find(x uint32) uint32 {
	for {
		p := atomic.LoadUint32(&d.parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadUint32(&d.parent[p])
		if gp == p {
			return p
		}
		// Path splitting: point x at its grandparent. A lost CAS just means
		// another thread improved the path first.
		atomic.CompareAndSwapUint32(&d.parent[x], p, gp)
		x = gp
	}
}

// Union links the components of roots ru and rv by index order (the lower
// root is pointed at the higher). Both arguments must be roots returned by
// Find. It reports whether the CAS succeeded; on false the caller should
// buffer the originating edge and re-verify it in the next Algorithm 1
// iteration.
func (d *DSU) Union(ru, rv uint32) bool {
	if ru == rv {
		return true
	}
	if ru > rv {
		ru, rv = rv, ru
	}
	return atomic.CompareAndSwapUint32(&d.parent[ru], ru, rv)
}

// Connect processes one edge (u, v) following Algorithm 1's loop body: find
// both roots and, if they differ, attempt a Union. It reports whether the
// edge must be re-verified (a union was attempted, successfully or not —
// the paper buffers every union-producing edge for the next iteration).
func (d *DSU) Connect(u, v uint32) bool {
	ru, rv := d.Find(u), d.Find(v)
	if ru == rv {
		return false
	}
	d.Union(ru, rv)
	return true
}

// Edge is an undirected read-graph edge.
type Edge struct{ U, V uint32 }

// ProcessEdges runs Algorithm 1 over the edge list with the given number of
// worker threads: each worker processes a static block of edges, buffering
// union-producing edges into a private list, and Reverify re-processes the
// lists until a round produces no unions. It returns the number of
// iterations, which is dominated by the first (as observed in §3.5). The
// buffers are the workers' own, so edges is never written.
func (d *DSU) ProcessEdges(edges []Edge, workers int) int {
	if workers < 1 {
		workers = 1
	}
	retry := make([][]Edge, workers)
	par.Run(workers, func(w int) {
		lo, hi := par.Block(len(edges), workers, w)
		var buf []Edge
		for _, e := range edges[lo:hi] {
			if d.Connect(e.U, e.V) {
				buf = append(buf, e)
			}
		}
		retry[w] = buf
	})
	rounds, _ := d.Reverify(retry)
	return 1 + rounds
}

// Reverify is Algorithm 1's outer loop, run after a caller's first round:
// while any buffer in retry is non-empty, worker w re-processes retry[w]
// and keeps, compacted in place, the edges that again produced a union
// attempt. It returns the rounds it ran (0 when every buffer is empty) and
// attempts, the union attempts behind the buffers it was handed and
// refilled: every edge whose Connect reported true, the first round's
// included. Attempts less successful unions are the CASes that lost a race.
// The buffers come back empty with their capacity kept.
func (d *DSU) Reverify(retry [][]Edge) (rounds int, attempts uint64) {
	for {
		n := 0
		for _, buf := range retry {
			n += len(buf)
		}
		if n == 0 {
			return rounds, attempts
		}
		rounds++
		attempts += uint64(n)
		par.Run(len(retry), func(w int) {
			buf := retry[w][:0]
			for _, e := range retry[w] {
				if d.Connect(e.U, e.V) {
					buf = append(buf, e)
				}
			}
			retry[w] = buf
		})
	}
}

// Absorb merges another parent array into d, the MergeCC receive step
// (§3.6): element i of p is treated as an edge (i, p[i]) because those two
// vertices were in one component on the sending task. Work is split across
// workers; conflicting unions are retried by Reverify.
func (d *DSU) Absorb(p []uint32, workers int) {
	if workers < 1 {
		workers = 1
	}
	retry := make([][]Edge, workers)
	par.Run(workers, func(w int) {
		lo, hi := par.Block(len(p), workers, w)
		var buf []Edge
		for i := lo; i < hi; i++ {
			v := p[i]
			if v != uint32(i) && d.Connect(uint32(i), v) {
				buf = append(buf, Edge{uint32(i), v})
			}
		}
		retry[w] = buf
	})
	d.Reverify(retry)
}

// Flatten fully compresses every path so parent[i] is i's component root,
// then returns the parent slice. Call only after all concurrent work is
// done; the result is the component label array ("p" in the paper).
func (d *DSU) Flatten(workers int) []uint32 {
	par.For(workers, len(d.parent), func(i int) {
		atomic.StoreUint32(&d.parent[i], d.Find(uint32(i)))
	})
	return d.parent
}

// SnapshotDelta encodes, as interleaved (vertex, parent) pairs, exactly the
// entries whose parent changed since the previous SnapshotDelta on this DSU.
// The first call is the epoch-0 baseline and returns every non-trivial entry
// — when most reads are singletons (highly diverse metagenomes) far smaller
// than the dense 4R-byte array. Each call advances the delta epoch: entries
// reported once are not reported again unless they change again, so the
// union of all deltas ever returned reconstructs the DSU's partition at the
// time of the last call. This is the pipelined MergeCC wire payload: a task
// that has already shipped its baseline only ships what later absorbs
// changed. Not safe concurrently with itself; concurrent Find/Union are
// tolerated (atomic loads) but entries mutated mid-scan land in the next
// delta.
//
// A dst too small for the delta is replaced by one allocated at the
// delta's size, counted in a first scan, so a baseline over R reads costs
// one allocation rather than the ~2× of append's doubling.
func (d *DSU) SnapshotDelta(dst []uint32) []uint32 {
	if n := 2 * d.deltaLen(); cap(dst) < n {
		dst = make([]uint32, 0, n)
	}
	dst = dst[:0]
	if d.shadow == nil {
		d.shadow = make([]uint32, len(d.parent))
		for i := range d.parent {
			p := atomic.LoadUint32(&d.parent[i])
			d.shadow[i] = p
			if p != uint32(i) {
				dst = append(dst, uint32(i), p)
			}
		}
		return dst
	}
	for i := range d.parent {
		p := atomic.LoadUint32(&d.parent[i])
		if p != d.shadow[i] {
			d.shadow[i] = p
			dst = append(dst, uint32(i), p)
		}
	}
	return dst
}

// deltaLen counts the entries the next SnapshotDelta reports (entries
// mutated between the two scans may make it off by a few; append absorbs
// that).
func (d *DSU) deltaLen() int {
	n := 0
	for i := range d.parent {
		was := uint32(i)
		if d.shadow != nil {
			was = d.shadow[i]
		}
		if atomic.LoadUint32(&d.parent[i]) != was {
			n++
		}
	}
	return n
}

// ComponentSizesPar returns, for each root, the number of vertices in its
// component: each worker counts a block of vertices into a private map and
// the maps are merged.
// Call after concurrent mutation is done (concurrent Finds from the workers
// themselves are safe — path splitting is CAS-based).
func (d *DSU) ComponentSizesPar(workers int) map[uint32]int {
	if workers < 1 {
		workers = 1
	}
	partial := make([]map[uint32]int, workers)
	par.Run(workers, func(w int) {
		lo, hi := par.Block(len(d.parent), workers, w)
		m := make(map[uint32]int)
		for i := lo; i < hi; i++ {
			m[d.Find(uint32(i))]++
		}
		partial[w] = m
	})
	sizes := partial[0]
	if sizes == nil {
		sizes = make(map[uint32]int)
	}
	for _, m := range partial[1:] {
		for r, c := range m {
			sizes[r] += c
		}
	}
	return sizes
}

// AbsorbPairs folds a SnapshotDelta payload (interleaved vertex/parent
// pairs) into d, splitting the work across workers; conflicting unions are
// retried by Reverify. It returns Reverify's union attempts.
func (d *DSU) AbsorbPairs(pairs []uint32, workers int) (attempts uint64) {
	if workers < 1 {
		workers = 1
	}
	n := len(pairs) / 2
	retry := make([][]Edge, workers)
	par.Run(workers, func(w int) {
		lo, hi := par.Block(n, workers, w)
		var buf []Edge
		for i := lo; i < hi; i++ {
			u, v := pairs[2*i], pairs[2*i+1]
			if d.Connect(u, v) {
				buf = append(buf, Edge{U: u, V: v})
			}
		}
		retry[w] = buf
	})
	_, attempts = d.Reverify(retry)
	return attempts
}
