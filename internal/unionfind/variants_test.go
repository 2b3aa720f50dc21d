package unionfind

import (
	"math/rand"
	"sync"
	"testing"

	"metaprep/internal/par"
)

// variants_test.go implements, for the tests and benchmarks below only, the
// alternative disjoint-set designs the paper's §3.5 discussion weighs
// against its choice (union-by-index + path splitting + lock-free CAS):
//
//   - SizeDSU is Cybenko et al.'s serial structure: union-by-size with full
//     path compression — the serial reference point.
//   - LockedDSU is the "treat union operations as critical sections"
//     concurrent variant Cybenko et al. use to avoid lost updates: the same
//     operations under a mutex. It is the ablation counterpart of the
//     lock-free DSU (benchmarked head-to-head below); the paper's design
//     exists precisely to avoid this serialization.

// SizeDSU is a serial union-find with union-by-size and path compression.
type SizeDSU struct {
	parent []uint32
	size   []uint32
}

// NewSize returns a SizeDSU over n singleton vertices.
func NewSize(n int) *SizeDSU {
	d := &SizeDSU{
		parent: make([]uint32, n),
		size:   make([]uint32, n),
	}
	for i := range d.parent {
		d.parent[i] = uint32(i)
		d.size[i] = 1
	}
	return d
}

// Find returns x's root, fully compressing the path.
func (d *SizeDSU) Find(x uint32) uint32 {
	root := x
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for d.parent[x] != root {
		d.parent[x], x = root, d.parent[x]
	}
	return root
}

// Union merges the components of u and v, attaching the smaller tree under
// the larger, and reports whether a merge happened.
func (d *SizeDSU) Union(u, v uint32) bool {
	ru, rv := d.Find(u), d.Find(v)
	if ru == rv {
		return false
	}
	if d.size[ru] < d.size[rv] {
		ru, rv = rv, ru
	}
	d.parent[rv] = ru
	d.size[ru] += d.size[rv]
	return true
}

// Labels returns the component root of every vertex.
func (d *SizeDSU) Labels() []uint32 {
	out := make([]uint32, len(d.parent))
	for i := range out {
		out[i] = d.Find(uint32(i))
	}
	return out
}

// LockedDSU is the concurrent union-find with unions as critical sections.
type LockedDSU struct {
	mu     sync.Mutex
	parent []uint32
	size   []uint32
}

// NewLocked returns a LockedDSU over n singleton vertices.
func NewLocked(n int) *LockedDSU {
	d := &LockedDSU{
		parent: make([]uint32, n),
		size:   make([]uint32, n),
	}
	for i := range d.parent {
		d.parent[i] = uint32(i)
		d.size[i] = 1
	}
	return d
}

// Connect processes one edge inside the critical section, reporting
// whether it merged two components.
func (d *LockedDSU) Connect(u, v uint32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	ru := d.findLocked(u)
	rv := d.findLocked(v)
	if ru == rv {
		return false
	}
	if d.size[ru] < d.size[rv] {
		ru, rv = rv, ru
	}
	d.parent[rv] = ru
	d.size[ru] += d.size[rv]
	return true
}

func (d *LockedDSU) findLocked(x uint32) uint32 {
	root := x
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for d.parent[x] != root {
		d.parent[x], x = root, d.parent[x]
	}
	return root
}

// Labels returns the component root of every vertex.
func (d *LockedDSU) Labels() []uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint32, len(d.parent))
	for i := range out {
		out[i] = d.findLocked(uint32(i))
	}
	return out
}

func TestSizeDSUMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(300)
		edges := randEdges(rng, n, rng.Intn(2*n))
		d := NewSize(n)
		for _, e := range edges {
			d.Union(e.U, e.V)
		}
		sameParts(t, n, edges, d.Labels())
	}
}

func TestSizeDSUUnionReturn(t *testing.T) {
	d := NewSize(3)
	if !d.Union(0, 1) {
		t.Error("first union reported no merge")
	}
	if d.Union(0, 1) {
		t.Error("repeated union reported a merge")
	}
}

func TestLockedDSUMatchesNaiveSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(300)
		edges := randEdges(rng, n, rng.Intn(2*n))
		d := NewLocked(n)
		for _, e := range edges {
			d.Connect(e.U, e.V)
		}
		sameParts(t, n, edges, d.Labels())
	}
}

func TestLockedDSUConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 2000
	edges := randEdges(rng, n, 4*n)
	d := NewLocked(n)
	par.Run(8, func(w int) {
		lo, hi := par.Block(len(edges), 8, w)
		for _, e := range edges[lo:hi] {
			d.Connect(e.U, e.V)
		}
	})
	sameParts(t, n, edges, d.Labels())
}

func TestAllVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 1500
	edges := randEdges(rng, n, 3*n)

	free := New(n)
	free.ProcessEdges(edges, 4)
	a := canon(free.Flatten(1))

	size := NewSize(n)
	for _, e := range edges {
		size.Union(e.U, e.V)
	}
	b := canon(size.Labels())

	locked := NewLocked(n)
	for _, e := range edges {
		locked.Connect(e.U, e.V)
	}
	c := canon(locked.Labels())

	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("vertex %d: lock-free %d, by-size %d, locked %d", i, a[i], b[i], c[i])
		}
	}
}

// The variant benchmarks quantify DESIGN.md's ablation #3: the lock-free
// union-by-index design versus Cybenko's critical-section approach under
// contention, and versus the serial union-by-size reference.

func benchEdgesFor(n int) []Edge {
	rng := rand.New(rand.NewSource(1))
	return randEdges(rng, n, n)
}

func BenchmarkVariantLockFree4Workers(b *testing.B) {
	n := 1 << 18
	edges := benchEdgesFor(n)
	b.SetBytes(int64(len(edges) * 8))
	for i := 0; i < b.N; i++ {
		d := New(n)
		d.ProcessEdges(edges, 4)
	}
}

func BenchmarkVariantLocked4Workers(b *testing.B) {
	n := 1 << 18
	edges := benchEdgesFor(n)
	b.SetBytes(int64(len(edges) * 8))
	for i := 0; i < b.N; i++ {
		d := NewLocked(n)
		par.Run(4, func(w int) {
			lo, hi := par.Block(len(edges), 4, w)
			for _, e := range edges[lo:hi] {
				d.Connect(e.U, e.V)
			}
		})
	}
}

func BenchmarkVariantSizeSerial(b *testing.B) {
	n := 1 << 18
	edges := benchEdgesFor(n)
	b.SetBytes(int64(len(edges) * 8))
	for i := 0; i < b.N; i++ {
		d := NewSize(n)
		for _, e := range edges {
			d.Union(e.U, e.V)
		}
	}
}
