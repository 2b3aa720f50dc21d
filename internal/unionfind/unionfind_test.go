package unionfind

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"metaprep/internal/par"
)

// naiveComponents computes component labels by repeated relabeling — slow
// but obviously correct. Labels are the minimum vertex of each component.
func naiveComponents(n int, edges []Edge) []uint32 {
	label := make([]uint32, n)
	for i := range label {
		label[i] = uint32(i)
	}
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			lu, lv := label[e.U], label[e.V]
			if lu < lv {
				label[e.V] = lu
				changed = true
			} else if lv < lu {
				label[e.U] = lv
				changed = true
			}
		}
		// Propagate: label[i] = label[label[i]].
		for i := range label {
			if label[label[i]] != label[i] {
				label[i] = label[label[i]]
				changed = true
			}
		}
	}
	return label
}

// canon maps arbitrary component labels to min-vertex labels for comparison.
func canon(labels []uint32) []uint32 {
	minOf := make(map[uint32]uint32)
	for i, l := range labels {
		if m, ok := minOf[l]; !ok || uint32(i) < m {
			minOf[l] = uint32(i)
		}
	}
	out := make([]uint32, len(labels))
	for i, l := range labels {
		out[i] = minOf[l]
	}
	return out
}

func sameParts(t *testing.T, n int, edges []Edge, got []uint32) {
	t.Helper()
	want := naiveComponents(n, edges)
	g := canon(got)
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("vertex %d: component %d, want %d", i, g[i], want[i])
		}
	}
}

func randEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	return edges
}

func TestDSUBasic(t *testing.T) {
	d := New(5)
	if d.Len() != 5 {
		t.Fatalf("Len = %d", d.Len())
	}
	for i := uint32(0); i < 5; i++ {
		if d.Find(i) != i {
			t.Fatalf("initial Find(%d) = %d", i, d.Find(i))
		}
	}
	if !d.Connect(0, 1) {
		t.Fatal("Connect(0,1) reported no union")
	}
	if d.Connect(0, 1) {
		t.Fatal("repeated Connect(0,1) reported a union")
	}
	if d.Find(0) != d.Find(1) {
		t.Fatal("0 and 1 not connected")
	}
	if d.Find(2) == d.Find(0) {
		t.Fatal("2 wrongly connected")
	}
}

func TestUnionByIndex(t *testing.T) {
	// The lower root must point at the higher root.
	d := New(4)
	d.Connect(0, 3)
	if d.parent[0] != 3 {
		t.Errorf("parent[0] = %d, want 3 (union-by-index)", d.parent[0])
	}
	if d.Find(0) != 3 {
		t.Errorf("root = %d, want 3", d.Find(0))
	}
}

func TestProcessEdgesSerialMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		edges := randEdges(rng, n, rng.Intn(400))
		d := New(n)
		d.ProcessEdges(edges, 1)
		sameParts(t, n, edges, d.Flatten(1))
	}
}

func TestProcessEdgesParallelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 100 + rng.Intn(2000)
		edges := randEdges(rng, n, n*3)
		d := New(n)
		d.ProcessEdges(edges, 8)
		sameParts(t, n, edges, d.Flatten(8))
	}
}

func TestProcessEdgesChainWorstCase(t *testing.T) {
	// A path graph, fed in reverse order, with many workers.
	n := 5000
	edges := make([]Edge, 0, n-1)
	for i := n - 1; i > 0; i-- {
		edges = append(edges, Edge{uint32(i - 1), uint32(i)})
	}
	d := New(n)
	iters := d.ProcessEdges(edges, 16)
	if iters < 1 {
		t.Fatalf("iterations = %d", iters)
	}
	labels := d.Flatten(1)
	for i := 1; i < n; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("vertex %d not in the single component", i)
		}
	}
}

func TestProcessEdgesEmpty(t *testing.T) {
	d := New(10)
	if iters := d.ProcessEdges(nil, 4); iters != 1 {
		t.Errorf("iterations on empty input = %d, want 1", iters)
	}
}

// blockLocalChains returns, for w workers, w reversed path graphs of k
// edges each over disjoint vertex ranges, laid out so that par.Block hands
// worker i exactly chain i: no two workers touch one vertex, so no union
// CAS can lose a race and the round count is schedule-free.
func blockLocalChains(w, k int) []Edge {
	edges := make([]Edge, 0, w*k)
	for i := 0; i < w; i++ {
		base := uint32(i * (k + 1))
		for j := k; j > 0; j-- {
			edges = append(edges, Edge{base + uint32(j-1), base + uint32(j)})
		}
	}
	return edges
}

// TestProcessEdgesPreservesInput pins ProcessEdges' contract with its
// caller: the edge list, and the backing array beyond its length, are never
// written, and the returned round count is Algorithm 1's. That count is 1
// when no edge unions anything and 2 when every union wins its CAS (the
// second round finds each buffered edge inside one component), which holds
// at one worker for every input and at any worker count when the workers'
// blocks share no vertex.
func TestProcessEdgesPreservesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	chain := make([]Edge, 0, 4999)
	for i := 4999; i > 0; i-- {
		chain = append(chain, Edge{uint32(i - 1), uint32(i)})
	}
	for _, w := range []int{1, 4, 8} {
		cases := []struct {
			name  string
			n     int
			edges []Edge
			want  int  // the round count when no union CAS loses a race
			racy  bool // workers' blocks share vertices: at w > 1 a lost CAS may add rounds
		}{
			{"empty", 10, nil, 1, false},
			{"self-loops", 3, []Edge{{1, 1}, {2, 2}}, 1, false},
			{"block-local", 8 * 101, blockLocalChains(w, 100), 2, false},
			{"chain", 5000, chain, 2, true},
			{"random", 2000, randEdges(rng, 2000, 3000), 2, true},
		}
		for _, c := range cases {
			// Guard elements after len(edges) catch a write through the
			// spare capacity as well as one into the edges themselves.
			backing := append(append([]Edge(nil), c.edges...), Edge{7, 7}, Edge{9, 9})
			edges := backing[:len(c.edges)]
			before := append([]Edge(nil), backing...)
			d := New(c.n)
			iters := d.ProcessEdges(edges, w)
			if !slices.Equal(backing, before) {
				t.Errorf("w=%d %s: ProcessEdges wrote into its input", w, c.name)
			}
			if iters != c.want && !(c.racy && w > 1 && iters > c.want) {
				t.Errorf("w=%d %s: %d rounds, want %d", w, c.name, iters, c.want)
			}
			sameParts(t, c.n, c.edges, d.Flatten(w))
		}
	}
}

// TestReverifyAttempts checks the driver's accounting: empty buffers run no
// round, and the attempts it reports — every buffered edge — are at least
// the successful unions, Len() − Roots(), with equality at one worker where
// no CAS can lose a race.
func TestReverifyAttempts(t *testing.T) {
	d := New(4)
	if rounds, attempts := d.Reverify(make([][]Edge, 3)); rounds != 0 || attempts != 0 {
		t.Errorf("empty buffers: %d rounds, %d attempts", rounds, attempts)
	}
	rng := rand.New(rand.NewSource(37))
	for _, w := range []int{1, 4} {
		n := 3000
		edges := randEdges(rng, n, 2*n)
		d := New(n)
		retry := make([][]Edge, w)
		par.Run(w, func(i int) {
			lo, hi := par.Block(len(edges), w, i)
			for _, e := range edges[lo:hi] {
				if d.Connect(e.U, e.V) {
					retry[i] = append(retry[i], e)
				}
			}
		})
		rounds, attempts := d.Reverify(retry)
		unions := uint64(d.Len() - d.Roots())
		if rounds < 1 || attempts < unions || (w == 1 && (rounds != 1 || attempts != unions)) {
			t.Errorf("w=%d: %d rounds, %d attempts, %d unions", w, rounds, attempts, unions)
		}
		for i, buf := range retry {
			if len(buf) != 0 {
				t.Errorf("w=%d: buffer %d not drained", w, i)
			}
		}
		sameParts(t, n, edges, d.Flatten(w))
	}
}

func TestSelfLoops(t *testing.T) {
	d := New(3)
	d.ProcessEdges([]Edge{{1, 1}, {2, 2}}, 2)
	for i := uint32(0); i < 3; i++ {
		if d.Find(i) != i {
			t.Fatalf("self loops merged vertex %d", i)
		}
	}
}

func TestAbsorbEquivalentToUnionOfEdgeSets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(500)
		e1 := randEdges(rng, n, n)
		e2 := randEdges(rng, n, n)

		// Reference: one DSU over both edge sets.
		ref := New(n)
		ref.ProcessEdges(append(append([]Edge(nil), e1...), e2...), 4)

		// Distributed: two local DSUs, then task 0 absorbs task 1's array.
		d0, d1 := New(n), New(n)
		d0.ProcessEdges(e1, 4)
		d1.ProcessEdges(e2, 4)
		d0.Absorb(append([]uint32(nil), d1.parent...), 4)

		want := canon(ref.Flatten(1))
		got := canon(d0.Flatten(1))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d vertex %d: got %d want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestFlattenProducesRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 1000
	d := New(n)
	d.ProcessEdges(randEdges(rng, n, 2000), 4)
	labels := d.Flatten(4)
	for i, l := range labels {
		if labels[l] != l {
			t.Fatalf("label of %d is %d, which is not a root", i, l)
		}
	}
}

func TestComponentSizes(t *testing.T) {
	d := New(6)
	d.Connect(0, 1)
	d.Connect(1, 2)
	d.Connect(4, 5)
	sizes := componentSizes(d)
	var got []int
	for _, s := range sizes {
		got = append(got, s)
	}
	total := 0
	for _, s := range got {
		total += s
	}
	if len(sizes) != 3 || total != 6 {
		t.Fatalf("sizes = %v", sizes)
	}
	root, size := largestComponent(d)
	if size != 3 || d.Find(0) != root {
		t.Fatalf("largest = %d (size %d)", root, size)
	}
}

func TestLargestComponentEmpty(t *testing.T) {
	d := New(0)
	if r, s := largestComponent(d); r != 0 || s != 0 {
		t.Fatalf("empty largest = %d,%d", r, s)
	}
}

func TestComponentsProperty(t *testing.T) {
	// Property: for every processed edge, both endpoints share a root; the
	// number of distinct roots equals n minus the number of effective merges.
	f := func(raw []uint16, nRaw uint8) bool {
		n := int(nRaw)%300 + 2
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{uint32(raw[i]) % uint32(n), uint32(raw[i+1]) % uint32(n)})
		}
		d := New(n)
		d.ProcessEdges(edges, 4)
		for _, e := range edges {
			if d.Find(e.U) != d.Find(e.V) {
				return false
			}
		}
		return len(componentSizes(d)) == len(canonSet(naiveComponents(n, edges)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func canonSet(labels []uint32) map[uint32]bool {
	s := make(map[uint32]bool)
	for _, l := range labels {
		s[l] = true
	}
	return s
}

func BenchmarkConnectRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 20
	edges := randEdges(rng, n, b.N)
	d := New(n)
	b.ResetTimer()
	for _, e := range edges {
		d.Connect(e.U, e.V)
	}
}

func BenchmarkProcessEdges1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 20
	edges := randEdges(rng, n, n)
	b.SetBytes(int64(len(edges) * 8))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := New(n)
		b.StartTimer()
		d.ProcessEdges(edges, 4)
	}
}

// snapshotSparse is the test oracle for SnapshotDelta's baseline: every
// non-trivial parent entry as interleaved (vertex, parent) pairs, scanned
// independently of the shadow array.
func snapshotSparse(d *DSU) []uint32 {
	var pairs []uint32
	for i, p := range d.parent {
		if p != uint32(i) {
			pairs = append(pairs, uint32(i), p)
		}
	}
	return pairs
}

// componentSizes is the serial oracle for ComponentSizesPar.
func componentSizes(d *DSU) map[uint32]int {
	sizes := make(map[uint32]int)
	for i := 0; i < d.Len(); i++ {
		sizes[d.Find(uint32(i))]++
	}
	return sizes
}

// largestComponent picks the largest component, ties toward the smaller
// root, from the serial count.
func largestComponent(d *DSU) (root uint32, size int) {
	for r, s := range componentSizes(d) {
		if s > size || (s == size && r < root) {
			root, size = r, s
		}
	}
	return root, size
}

func TestSparseSnapshotAbsorb(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(400)
		e1 := randEdges(rng, n, n/2)
		e2 := randEdges(rng, n, n/2)

		ref := New(n)
		ref.ProcessEdges(append(append([]Edge(nil), e1...), e2...), 4)

		d0, d1 := New(n), New(n)
		d0.ProcessEdges(e1, 4)
		d1.ProcessEdges(e2, 4)
		pairs := snapshotSparse(d1)
		// Sparse payload must be smaller than dense for sparse graphs.
		if len(pairs) > 2*n {
			t.Fatalf("sparse snapshot has %d entries for %d vertices", len(pairs), n)
		}
		d0.AbsorbPairs(pairs, 4)

		want := canon(ref.Flatten(1))
		got := canon(d0.Flatten(1))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d: got %d want %d", i, got[i], want[i])
			}
		}
	}
}

func TestSparseSnapshotEmpty(t *testing.T) {
	d := New(10)
	if pairs := snapshotSparse(d); len(pairs) != 0 {
		t.Fatalf("fresh DSU sparse snapshot = %v", pairs)
	}
	d.AbsorbPairs(nil, 2) // must not panic
}

func TestSnapshotDeltaIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(400)
		rounds := 2 + rng.Intn(4)
		var all []Edge
		sender := New(n)
		sink := New(n)
		var buf []uint32
		for r := 0; r < rounds; r++ {
			e := randEdges(rng, n, n/4)
			all = append(all, e...)
			sender.ProcessEdges(e, 4)
			buf = sender.SnapshotDelta(buf)
			if r == 0 {
				// Baseline delta must equal the sparse snapshot of the same state.
				if got, want := len(buf), len(snapshotSparse(sender)); got != want {
					t.Fatalf("baseline delta %d pairs, sparse snapshot %d", got, want)
				}
			}
			sink.AbsorbPairs(buf, 4)
		}
		// An extra delta with no intervening mutation must be empty.
		if extra := sender.SnapshotDelta(buf); len(extra) != 0 {
			t.Fatalf("idle delta returned %d entries", len(extra))
		}
		// The union of deltas reconstructs the sender's partition exactly.
		sameParts(t, n, all, sink.Flatten(2))
	}
}

func TestSnapshotDeltaReportsOnlyChanges(t *testing.T) {
	d := New(8)
	d.Connect(0, 1)
	first := d.SnapshotDelta(nil)
	if len(first) == 0 {
		t.Fatal("baseline delta empty after a union")
	}
	d.Connect(2, 3)
	second := d.SnapshotDelta(nil)
	for i := 0; i < len(second); i += 2 {
		v := second[i]
		if v == 0 || v == 1 {
			// Vertices 0/1 did not change after the baseline (2–3 union
			// cannot touch them), so they must not reappear.
			if d.parent[v] == first[1] && v == first[0] {
				t.Fatalf("unchanged vertex %d re-reported in delta %v", v, second)
			}
		}
	}
	if len(second) == 0 {
		t.Fatal("second delta empty after new union")
	}
}

func TestComponentSizesParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.Intn(500)
		d := New(n)
		d.ProcessEdges(randEdges(rng, n, n), 4)
		want := componentSizes(d)
		for _, w := range []int{1, 3, 8} {
			got := d.ComponentSizesPar(w)
			if len(got) != len(want) {
				t.Fatalf("workers=%d: %d components, want %d", w, len(got), len(want))
			}
			for r, s := range want {
				if got[r] != s {
					t.Fatalf("workers=%d: root %d size %d, want %d", w, r, got[r], s)
				}
			}
		}
	}
}
