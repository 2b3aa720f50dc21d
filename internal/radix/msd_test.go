package radix

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// rangeOf returns the contiguous interval of keys whose bits above sig
// equal base's.
func rangeOf(base uint64, sig uint) (min, max uint64) {
	if sig >= 64 {
		return 0, ^uint64(0)
	}
	low := uint64(1)<<sig - 1
	return base &^ low, base | low
}

// sortShapes are the key layouts the MSD-first kernel branches on. Each
// returns n keys inside [min, max]; the payload is always the arrival index,
// so stableMismatch's oracle checks stability and not only order.
var sortShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int, min, max uint64) []uint64
}{
	{"random", randomKeys},
	{"allEqual", func(rng *rand.Rand, n int, min, max uint64) []uint64 {
		keys := make([]uint64, n)
		k := min | rng.Uint64()&(max-min)
		for i := range keys {
			keys[i] = k
		}
		return keys
	}},
	{"twoKeys", func(rng *rand.Rand, n int, min, max uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = min
			if rng.Intn(2) == 1 {
				keys[i] = max
			}
		}
		return keys
	}},
	{"sorted", func(rng *rand.Rand, n int, min, max uint64) []uint64 {
		keys := randomKeys(rng, n, min, max)
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		return keys
	}},
	{"reversed", func(rng *rand.Rand, n int, min, max uint64) []uint64 {
		keys := randomKeys(rng, n, min, max)
		sort.Slice(keys, func(i, j int) bool { return keys[i] > keys[j] })
		return keys
	}},
	// Every key shares the top digit of the range, so the first scatter
	// level's all-equal skip fires and the next digit does the work.
	{"oneTopBucket", func(rng *rand.Rand, n int, min, max uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = min | rng.Uint64()&((max-min)>>12)
		}
		return keys
	}},
	// The pipeline's shape: every distinct k-mer seen ~7 times, arrival
	// order shuffled.
	{"dup7", dup7Keys},
}

func randomKeys(rng *rand.Rand, n int, min, max uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = min | rng.Uint64()&(max-min)
	}
	return keys
}

func dup7Keys(rng *rand.Rand, n int, min, max uint64) []uint64 {
	keys := make([]uint64, n)
	for i := 0; i < n; i += 7 {
		k := min | rng.Uint64()&(max-min)
		for j := i; j < i+7 && j < n; j++ {
			keys[j] = k
		}
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

func indexVals(n int) []uint32 {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	return vals
}

// stableMismatch compares a sort of origK, whose payload was the arrival
// index, with sort.SliceStable's order of (key, arrival index) and returns
// the first index that differs, -1 when none does.
func stableMismatch(origK, keys []uint64, vals []uint32) int {
	idx := indexVals(len(origK))
	sort.SliceStable(idx, func(i, j int) bool { return origK[idx[i]] < origK[idx[j]] })
	for i, at := range idx {
		if keys[i] != origK[at] || vals[i] != at {
			return i
		}
	}
	return -1
}

// TestSortPairs64RangeShapes drives the kernel across its size thresholds
// (insertion ≤ 64, in-cache digits ≤ 2¹⁵, the 8-bit top level above), every
// count of significant bits, and the shapes above, against a stable
// comparison sort of (key, arrival index).
func TestSortPairs64RangeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	allSigs := make([]uint, 65)
	for i := range allSigs {
		allSigs[i] = uint(i)
	}
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1 << 15, 1<<15 + 1, 300000} {
		sigs := allSigs
		if n > 65 {
			if testing.Short() && n > 1<<15+1 {
				continue
			}
			sigs = []uint{0, 1, 9, 53, 64}
		}
		for _, sig := range sigs {
			min, max := rangeOf(rng.Uint64(), sig)
			for _, sh := range sortShapes {
				keys := sh.gen(rng, n, min, max)
				vals := indexVals(n)
				origK := append([]uint64(nil), keys...)
				SortPairs64Range(keys, vals, make([]uint64, n), make([]uint32, n), min, max)
				if i := stableMismatch(origK, keys, vals); i >= 0 {
					t.Fatalf("n=%d sig=%d shape=%s: index %d holds (%#x, arrival %d), not the stable order's tuple",
						n, sig, sh.name, i, keys[i], vals[i])
				}
			}
		}
	}
}

// FuzzSortPairs64Range builds keys from the fuzzer's bytes, each repeated
// dup+1 times and interleaved so that a short input still reaches the
// scatter levels, and checks the result against the stable oracle.
func FuzzSortPairs64Range(f *testing.F) {
	rng := rand.New(rand.NewSource(16))
	big := make([]byte, 8*200)
	rng.Read(big)
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(64), uint8(0))
	f.Add(big, uint8(54), uint8(6))
	f.Add(big, uint8(9), uint8(255))
	f.Add(big[:8*70], uint8(64), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, sigRaw, dup uint8) {
		sig := uint(sigRaw) % 65
		distinct := len(data) / 8
		if distinct == 0 {
			return
		}
		min, max := rangeOf(binary.LittleEndian.Uint64(data), sig)
		n := distinct * (int(dup) + 1)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = min | binary.LittleEndian.Uint64(data[8*(i%distinct):])&(max-min)
		}
		vals := indexVals(n)
		origK := append([]uint64(nil), keys...)
		SortPairs64Range(keys, vals, make([]uint64, n), make([]uint32, n), min, max)
		if i := stableMismatch(origK, keys, vals); i >= 0 {
			t.Fatalf("n=%d sig=%d: index %d holds (%#x, arrival %d), not the stable order's tuple",
				n, sig, i, keys[i], vals[i])
		}
	})
}

// TestSortPairs64RangeAllocs pins the kernel's allocation count to its
// recursion depth: one boundary array per scatter level, whatever n is.
func TestSortPairs64RangeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1000, 300000} {
		min, max := rangeOf(0, 53)
		src := dup7Keys(rng, n, min, max)
		keys, vals := make([]uint64, n), indexVals(n)
		tmpK, tmpV := make([]uint64, n), make([]uint32, n)
		allocs := testing.AllocsPerRun(3, func() {
			copy(keys, src)
			SortPairs64Range(keys, vals, tmpK, tmpV, min, max)
		})
		if allocs > float64(len(sorter64{}.bounds)) {
			t.Errorf("n=%d: %.0f allocations per call, want at most one per level", n, allocs)
		}
	}
}

// TestBinSorterAllocs pins the per-bin entry points to zero allocations on
// a warm sorter, at both key widths and for bins that reach the scatter
// levels: LocalSort sorts tens of thousands of bins per pass.
func TestBinSorterAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const n = 3000 // about the largest bin of the benchmark's dataset
	for _, c := range []struct {
		wide, clustered bool
		sig             uint
	}{{false, false, 38}, {true, false, 40}, {true, false, 94}, {false, true, 42}} {
		srcHi, srcLo, srcV := binInput(rng, n, c.sig)
		if c.clustered {
			// Repeat clusters: the distinct-key finish's scratch is fixed.
			srcLo, srcV = repeatClusters(rng, n, c.sig)
		}
		hi, lo, vals := make([]uint64, n), make([]uint64, n), make([]uint32, n)
		var bs BinSorter
		run := func() {
			copy(hi, srcHi)
			copy(lo, srcLo)
			copy(vals, srcV)
			if c.wide {
				bs.Sort128(hi, lo, vals, c.sig)
			} else {
				bs.Sort64(lo, vals, c.sig)
			}
		}
		run() // warm: scratch and per-level bucket arrays
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("wide=%v clustered=%v sig=%d: %.0f allocations per bin on a warm sorter, want 0",
				c.wide, c.clustered, c.sig, allocs)
		}
	}
}

// repeatClusters returns n keys that agree above their low sig bits, with
// the arrival index as payload, shaped like a metagenome's receive group:
// half the tuples are families of 1–8 keys that share all but their low 8
// bits (a repeat, or a family of homologs), each key seen 20–300 times,
// and the rest are keys seen 1–7 times each. Arrival order is shuffled.
func repeatClusters(rng *rand.Rand, n int, sig uint) ([]uint64, []uint32) {
	base, mask := rng.Uint64(), ^uint64(0)
	if sig < 64 {
		mask = uint64(1)<<sig - 1
	}
	keys := make([]uint64, 0, n)
	add := func(x uint64, copies, upTo int) {
		for ; copies > 0 && len(keys) < upTo; copies-- {
			keys = append(keys, base&^mask|x&mask)
		}
	}
	for len(keys) < n/2 {
		prefix := rng.Uint64() &^ 0xFF
		for f := 1 + rng.Intn(8); f > 0; f-- {
			add(prefix|uint64(rng.Intn(256)), 20+rng.Intn(281), n/2)
		}
	}
	for len(keys) < n {
		add(rng.Uint64(), 1+rng.Intn(7), n)
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys, indexVals(n)
}

// TestBinSorterRepeatClusters drives the distinct-key finish against the
// stable oracle: whole groups and a spill-sized bucket of repeat clusters
// through Sort64 and Sort128, and hand-built buckets below the top level —
// exactly distinctMax distinct keys (finished) and one more (the fallback),
// keys that share a home slot of the table, with the probe wrapping past
// its last slot, and an all-equal bucket — with the result wanted on
// either side of the ping-pong.
func TestBinSorterRepeatClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var bs BinSorter
	for _, c := range []struct {
		n   int
		sig uint
	}{{15279, 42}, {15279, 20}, {4096, 54}, {1<<15 + 1, 42}, {200000, 46}} {
		if testing.Short() && c.n > 1<<15+1 {
			continue
		}
		keys, vals := repeatClusters(rng, c.n, c.sig)
		origK := append([]uint64(nil), keys...)
		bs.Sort64(keys, vals, c.sig)
		if i := stableMismatch(origK, keys, vals); i >= 0 {
			t.Fatalf("Sort64 n=%d sig=%d: index %d holds (%#x, arrival %d), not the stable order's tuple",
				c.n, c.sig, i, keys[i], vals[i])
		}
		if fin, _ := bs.Tally(); fin == 0 {
			t.Errorf("Sort64 n=%d sig=%d: no bucket finished by its distinct keys", c.n, c.sig)
		}
		keys, vals = repeatClusters(rng, c.n, c.sig)
		origK = append(origK[:0], keys...)
		hi := make([]uint64, c.n)
		bs.Sort128(hi, keys, vals, c.sig)
		if i := stableMismatch(origK, keys, vals); i >= 0 {
			t.Fatalf("Sort128 n=%d sig=%d: index %d holds (%#x, arrival %d), not the stable order's tuple",
				c.n, c.sig, i, keys[i], vals[i])
		}
	}

	// Buckets below the top level, sorted as the recursion's level 1 does.
	const sig = 20
	base := rng.Uint64() &^ (1<<sig - 1)
	distinct := func(nd, copies int) []uint64 {
		var keys []uint64
		for i := 0; i < nd; i++ {
			x := base | uint64(rng.Intn(1<<sig))
			for slices.Contains(keys, x) {
				x = base | uint64(rng.Intn(1<<sig))
			}
			keys = append(keys, slices.Repeat([]uint64{x}, copies)...)
		}
		return keys
	}
	// sameSlot returns n distinct keys of the range whose home slot is h.
	sameSlot := func(h uint, n int) []uint64 {
		var keys []uint64
		for x := base; len(keys) < n; x++ {
			if distinctSlot(x) == h {
				keys = append(keys, x)
			}
		}
		return keys
	}
	collide := append(sameSlot(distinctSlots-1, 30), sameSlot(0, 30)...)
	// Eight keys with distinct top 3 bits, too many tuples for the index:
	// a digit splits them, and each key's own bucket is then finished.
	var long []uint64
	for i := range uint64(8) {
		long = append(long, slices.Repeat([]uint64{base | i<<(sig-3) | uint64(rng.Intn(1<<(sig-3)))}, distinctTuplesMax/8+1)...)
	}
	for _, c := range []struct {
		name                string
		keys                []uint64
		finishes, fallbacks int
	}{
		{"64 distinct", distinct(distinctMax, 3), 1, 0},
		{"65 distinct", distinct(distinctMax+1, 3), 0, 1},
		{"one home slot", slices.Concat(collide, collide, collide), 1, 0},
		{"all equal", distinct(1, 500), 1, 0},
		{"longer than the index", long, 8, 0},
	} {
		for _, inPlace := range []bool{true, false} {
			n := len(c.keys)
			keys := append([]uint64(nil), c.keys...)
			rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			origK := append([]uint64(nil), keys...)
			vals := indexVals(n)
			tk, tv := make([]uint64, n), make([]uint32, n)
			var s sorter64
			s.sort(keys, vals, tk, tv, sig, 1, inPlace)
			if !inPlace {
				keys, vals = tk, tv
			}
			if i := stableMismatch(origK, keys, vals); i >= 0 {
				t.Fatalf("%s, in place %v: index %d holds (%#x, arrival %d), not the stable order's tuple",
					c.name, inPlace, i, keys[i], vals[i])
			}
			if s.finishes != c.finishes || s.fallbacks != c.fallbacks {
				t.Errorf("%s, in place %v: %d finishes and %d fallbacks, want %d and %d",
					c.name, inPlace, s.finishes, s.fallbacks, c.finishes, c.fallbacks)
			}
		}
	}
}

// FuzzBinSorter sorts a pool of distinct keys, each repeated, through
// BinSorter.Sort64 against the stable oracle. The fuzzer picks the pool's
// size, each key's multiplicity, the significant bits and how many low bits
// the pool's keys may differ in, so it reaches buckets of one key, of a
// few, of exactly distinctMax and of more.
func FuzzBinSorter(f *testing.F) {
	f.Add(int64(1), uint8(7), uint16(300), uint8(42), uint8(8))
	f.Add(int64(2), uint8(64), uint16(40), uint8(20), uint8(20))
	f.Add(int64(3), uint8(65), uint16(40), uint8(20), uint8(20))
	f.Add(int64(4), uint8(200), uint16(3), uint8(54), uint8(54))
	f.Add(int64(5), uint8(1), uint16(5000), uint8(64), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, pool uint8, mult uint16, sigRaw, spreadRaw uint8) {
		sig := uint(sigRaw) % 65
		spread := uint(spreadRaw) % (sig + 1)
		copies := 1 + int(mult)%2000
		if int(pool)*copies > 1<<16 {
			copies = 1 << 16 / max(1, int(pool))
		}
		rng := rand.New(rand.NewSource(seed))
		min, max := rangeOf(rng.Uint64(), sig)
		prefix := min | rng.Uint64()&(max-min)
		low := uint64(1)<<spread - 1
		var keys []uint64
		for range pool {
			x := prefix&^low | rng.Uint64()&low
			for range copies {
				keys = append(keys, x)
			}
		}
		n := len(keys)
		rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		origK := append([]uint64(nil), keys...)
		vals := indexVals(n)
		var bs BinSorter
		bs.Sort64(keys, vals, sig)
		if i := stableMismatch(origK, keys, vals); i >= 0 {
			t.Fatalf("n=%d sig=%d spread=%d: index %d holds (%#x, arrival %d), not the stable order's tuple",
				n, sig, spread, i, keys[i], vals[i])
		}
	})
}

// BenchmarkBinSorterGroup sorts, with one warm BinSorter, the two range
// sizes LocalSort meets: a ~15 K-tuple receive group and a 424 K-tuple
// spill bucket, both of repeat clusters (half the tuples in families of
// keys seen 20–300 times), in arrival order.
func BenchmarkBinSorterGroup(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		sig  uint
	}{{"group", 15279, 42}, {"spill", 424000, 46}} {
		b.Run(c.name, func(b *testing.B) {
			keys, vals := repeatClusters(rand.New(rand.NewSource(1)), c.n, c.sig)
			work, workV := make([]uint64, c.n), make([]uint32, c.n)
			var bs BinSorter
			bs.Grow(c.n, false)
			b.SetBytes(int64(c.n) * 12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work, keys)
				copy(workV, vals)
				b.StartTimer()
				bs.Sort64(work, workV, c.sig)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/tuple")
		})
	}
}

// BenchmarkSortPairs64RangeRun sorts one ~190 000-tuple range of 27-mers
// within a task's bin range (53 significant bits), each distinct key ~7
// times, in arrival order: the run size the retired spill runs had, kept
// so the kernel's numbers stay comparable across releases.
func BenchmarkSortPairs64RangeRun(b *testing.B) {
	const n = 190000
	min, max := rangeOf(0, 53)
	keys := dup7Keys(rand.New(rand.NewSource(1)), n, min, max)
	vals := indexVals(n)
	work, workV := make([]uint64, n), make([]uint32, n)
	tmpK, tmpV := make([]uint64, n), make([]uint32, n)
	b.SetBytes(n * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, keys)
		copy(workV, vals)
		b.StartTimer()
		SortPairs64Range(work, workV, tmpK, tmpV, min, max)
	}
}
