package radix

import (
	"encoding/binary"
	"math/rand"
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
		wide bool
		sig  uint
	}{{false, 38}, {true, 40}, {true, 94}} {
		srcHi, srcLo, srcV := binInput(rng, n, c.sig)
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
			t.Errorf("wide=%v sig=%d: %.0f allocations per bin on a warm sorter, want 0", c.wide, c.sig, allocs)
		}
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
