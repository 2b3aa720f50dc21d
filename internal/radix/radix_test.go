package radix

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// checkSorted64 verifies keys are ascending and that the (key, val) pairing
// matches the reference obtained by a stable comparison sort.
func checkSorted64(t *testing.T, origK []uint64, origV []uint32, keys []uint64, vals []uint32) {
	t.Helper()
	type pair struct {
		k uint64
		v uint32
	}
	ref := make([]pair, len(origK))
	for i := range ref {
		ref[i] = pair{origK[i], origV[i]}
	}
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].k < ref[j].k })
	for i := range ref {
		if keys[i] != ref[i].k || vals[i] != ref[i].v {
			t.Fatalf("index %d: got (%d,%d) want (%d,%d)", i, keys[i], vals[i], ref[i].k, ref[i].v)
		}
	}
}

func randPairs(rng *rand.Rand, n int, keyBits uint) ([]uint64, []uint32) {
	keys := make([]uint64, n)
	vals := make([]uint32, n)
	mask := ^uint64(0)
	if keyBits < 64 {
		mask = uint64(1)<<keyBits - 1
	}
	for i := range keys {
		keys[i] = rng.Uint64() & mask
		vals[i] = uint32(i)
	}
	return keys, vals
}

func TestSortPairs64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 10, 1000, 4096} {
		for _, bits := range []uint{8, 16, 54, 64} {
			keys, vals := randPairs(rng, n, bits)
			origK := append([]uint64(nil), keys...)
			origV := append([]uint32(nil), vals...)
			tmpK := make([]uint64, n)
			tmpV := make([]uint32, n)
			SortPairs64(keys, vals, tmpK, tmpV, 8)
			checkSorted64(t, origK, origV, keys, vals)
		}
	}
}

func TestSortPairs64Stability(t *testing.T) {
	// Payloads of equal keys must keep input order (LSD radix is stable;
	// the pipeline's read-graph edge generation relies only on grouping,
	// but stability is part of the §4.2.2 baseline contract).
	keys := []uint64{5, 1, 5, 1, 5}
	vals := []uint32{0, 1, 2, 3, 4}
	SortPairs64(keys, vals, make([]uint64, 5), make([]uint32, 5), 8)
	wantK := []uint64{1, 1, 5, 5, 5}
	wantV := []uint32{1, 3, 0, 2, 4}
	for i := range wantK {
		if keys[i] != wantK[i] || vals[i] != wantV[i] {
			t.Fatalf("got %v/%v want %v/%v", keys, vals, wantK, wantV)
		}
	}
}

func TestSortPairs64FewPasses(t *testing.T) {
	// With passes=2 only the low 16 bits need to be ordered.
	rng := rand.New(rand.NewSource(2))
	keys, vals := randPairs(rng, 500, 16)
	origK := append([]uint64(nil), keys...)
	origV := append([]uint32(nil), vals...)
	SortPairs64(keys, vals, make([]uint64, 500), make([]uint32, 500), 2)
	checkSorted64(t, origK, origV, keys, vals)
}

func TestSortPairs64Property(t *testing.T) {
	f := func(keys []uint64) bool {
		n := len(keys)
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(i)
		}
		orig := append([]uint64(nil), keys...)
		SortPairs64(keys, vals, make([]uint64, n), make([]uint32, n), 8)
		// Sorted, a permutation, and payloads still point at equal keys.
		for i := 1; i < n; i++ {
			if keys[i-1] > keys[i] {
				return false
			}
		}
		for i := range keys {
			if orig[vals[i]] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSortPairs64Digit16(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 17, 2000} {
		keys, vals := randPairs(rng, n, 64)
		origK := append([]uint64(nil), keys...)
		origV := append([]uint32(nil), vals...)
		SortPairs64Digit16(keys, vals, make([]uint64, n), make([]uint32, n), 4)
		checkSorted64(t, origK, origV, keys, vals)
	}
}

func TestSortPairs64AllEqual(t *testing.T) {
	keys := make([]uint64, 100)
	vals := make([]uint32, 100)
	for i := range keys {
		keys[i] = 42
		vals[i] = uint32(i)
	}
	SortPairs64(keys, vals, make([]uint64, 100), make([]uint32, 100), 8)
	for i := range keys {
		if keys[i] != 42 || vals[i] != uint32(i) {
			t.Fatal("all-equal input was disturbed")
		}
	}
}

func TestSortPairs128(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 2, 100, 3000} {
		hi := make([]uint64, n)
		lo := make([]uint64, n)
		vals := make([]uint32, n)
		for i := 0; i < n; i++ {
			// Small hi ranges force ties that exercise the lo ordering.
			hi[i] = uint64(rng.Intn(4))
			lo[i] = rng.Uint64()
			vals[i] = uint32(i)
		}
		type trip struct {
			h, l uint64
			v    uint32
		}
		ref := make([]trip, n)
		for i := range ref {
			ref[i] = trip{hi[i], lo[i], vals[i]}
		}
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].h != ref[j].h {
				return ref[i].h < ref[j].h
			}
			return ref[i].l < ref[j].l
		})
		SortPairs128(hi, lo, vals, make([]uint64, n), make([]uint64, n), make([]uint32, n), 16)
		for i := range ref {
			if hi[i] != ref[i].h || lo[i] != ref[i].l || vals[i] != ref[i].v {
				t.Fatalf("n=%d index %d: got (%d,%d,%d) want (%d,%d,%d)",
					n, i, hi[i], lo[i], vals[i], ref[i].h, ref[i].l, ref[i].v)
			}
		}
	}
}

func TestBaselineSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, workers := range []int{1, 2, 3, 4, 7} {
		for _, n := range []int{0, 1, 2, 5, 1000, 4097} {
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64() >> uint(rng.Intn(40))
				vals[i] = uint64(i)
			}
			type pair struct{ k, v uint64 }
			ref := make([]pair, n)
			for i := range ref {
				ref[i] = pair{keys[i], vals[i]}
			}
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].k < ref[j].k })
			BaselineSort(keys, vals, make([]uint64, n), make([]uint64, n), workers)
			for i := range ref {
				if keys[i] != ref[i].k || vals[i] != ref[i].v {
					t.Fatalf("workers=%d n=%d index %d: got (%d,%d) want (%d,%d)",
						workers, n, i, keys[i], vals[i], ref[i].k, ref[i].v)
				}
			}
		}
	}
}

func TestBaselineSortMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 10000
	keys, vals32 := randPairs(rng, n, 64)
	keysB := append([]uint64(nil), keys...)
	valsB := make([]uint64, n)
	for i := range valsB {
		valsB[i] = uint64(vals32[i])
	}
	SortPairs64(keys, vals32, make([]uint64, n), make([]uint32, n), 8)
	BaselineSort(keysB, valsB, make([]uint64, n), make([]uint64, n), 4)
	for i := range keys {
		if keys[i] != keysB[i] || uint64(vals32[i]) != valsB[i] {
			t.Fatalf("index %d: serial (%d,%d) vs baseline (%d,%d)",
				i, keys[i], vals32[i], keysB[i], valsB[i])
		}
	}
}

func benchSort(b *testing.B, n int, fn func(keys []uint64, vals []uint32)) {
	rng := rand.New(rand.NewSource(1))
	keys, vals := randPairs(rng, n, 54) // 27-mer keys occupy 54 bits
	work := make([]uint64, n)
	workV := make([]uint32, n)
	b.SetBytes(int64(n * 12)) // paper counts 12-byte tuples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, keys)
		copy(workV, vals)
		b.StartTimer()
		fn(work, workV)
	}
}

func BenchmarkSortPairs64_1e6(b *testing.B) {
	n := 1 << 20
	tmpK := make([]uint64, n)
	tmpV := make([]uint32, n)
	benchSort(b, n, func(k []uint64, v []uint32) { SortPairs64(k, v, tmpK, tmpV, 8) })
}

func BenchmarkSortPairs64Digit16_1e6(b *testing.B) {
	n := 1 << 20
	tmpK := make([]uint64, n)
	tmpV := make([]uint32, n)
	benchSort(b, n, func(k []uint64, v []uint32) { SortPairs64Digit16(k, v, tmpK, tmpV, 4) })
}

func BenchmarkBaselineSort_1e6(b *testing.B) {
	n := 1 << 20
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() & (1<<54 - 1)
		vals[i] = uint64(i)
	}
	work := make([]uint64, n)
	workV := make([]uint64, n)
	tmpK := make([]uint64, n)
	tmpV := make([]uint64, n)
	b.SetBytes(int64(n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, keys)
		copy(workV, vals)
		b.StartTimer()
		BaselineSort(work, workV, tmpK, tmpV, 1)
	}
}

func BenchmarkSortPairs128_1e6(b *testing.B) {
	n := 1 << 20
	rng := rand.New(rand.NewSource(1))
	hi := make([]uint64, n)
	lo := make([]uint64, n)
	vals := make([]uint32, n)
	for i := range hi {
		hi[i] = rng.Uint64() & (1<<62 - 1)
		lo[i] = rng.Uint64()
		vals[i] = uint32(i)
	}
	workH := make([]uint64, n)
	workL := make([]uint64, n)
	workV := make([]uint32, n)
	tmpH := make([]uint64, n)
	tmpL := make([]uint64, n)
	tmpV := make([]uint32, n)
	b.SetBytes(int64(n * 20)) // paper's 20-byte 63-mer tuples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(workH, hi)
		copy(workL, lo)
		copy(workV, vals)
		b.StartTimer()
		SortPairs128(workH, workL, workV, tmpH, tmpL, tmpV, 16)
	}
}

func TestSortKeys64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 1000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		want := append([]uint64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		SortKeys64(keys, make([]uint64, n), 8)
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("n=%d index %d: %d != %d", n, i, keys[i], want[i])
			}
		}
	}
}

// --- key-range-aware entry points -----------------------------------------

func TestSortPairs64Range(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 2, 100, 3000, 1<<16 + 1} {
		for _, bits := range []uint{1, 16, 38, 54, 64} {
			keys, vals := randPairs(rng, n, bits)
			origK := append([]uint64(nil), keys...)
			origV := append([]uint32(nil), vals...)
			max := ^uint64(0)
			if bits < 64 {
				max = uint64(1)<<bits - 1
			}
			SortPairs64Range(keys, vals, make([]uint64, n), make([]uint32, n), 0, max)
			checkSorted64(t, origK, origV, keys, vals)
		}
	}
}

func TestSortPairs64RangePinnedHighBits(t *testing.T) {
	// Keys share a fixed high prefix; the range sort must still order the
	// live low bits (and may skip the pinned passes).
	rng := rand.New(rand.NewSource(7))
	const base = uint64(0xABC) << 40
	n := 5000
	keys, vals := randPairs(rng, n, 40)
	for i := range keys {
		keys[i] |= base
	}
	origK := append([]uint64(nil), keys...)
	origV := append([]uint32(nil), vals...)
	SortPairs64Range(keys, vals, make([]uint64, n), make([]uint32, n), base, base|(uint64(1)<<40-1))
	checkSorted64(t, origK, origV, keys, vals)
}

// binInput returns n tuples of one bin: 128-bit keys (hi, lo) that agree
// above their low sig bits, drawn from n/7+1 distinct values so equal keys
// are common, with the arrival index as payload. With sig ≤ 64 the hi words
// are all equal; for a 64-bit bin use lo alone.
func binInput(rng *rand.Rand, n int, sig uint) (hi, lo []uint64, vals []uint32) {
	baseHi, baseLo := rng.Uint64(), rng.Uint64()
	maskHi, maskLo := uint64(0), ^uint64(0)
	if sig < 64 {
		maskLo = uint64(1)<<sig - 1
	} else if sig < 128 {
		maskHi = uint64(1)<<(sig-64) - 1
	}
	distinct := make([][2]uint64, n/7+1)
	for i := range distinct {
		distinct[i] = [2]uint64{baseHi&^maskHi | rng.Uint64()&maskHi, baseLo&^maskLo | rng.Uint64()&maskLo}
	}
	hi, lo, vals = make([]uint64, n), make([]uint64, n), make([]uint32, n)
	for i := range lo {
		d := distinct[rng.Intn(len(distinct))]
		hi[i], lo[i], vals[i] = d[0], d[1], uint32(i)
	}
	return hi, lo, vals
}

// TestBinSorter checks both entry points against a sort.SliceStable
// (key, arrival) oracle on bins of 0, 1, 64 (the insertion leaf), 65 (the
// first scatter) and 2¹⁵+1 tuples (past the in-cache digit width), one
// sorter serving every bin as LocalSort's threads do.
func TestBinSorter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	type tuple struct {
		hi, lo uint64
		val    uint32
	}
	oracle := func(hi, lo []uint64, vals []uint32) []tuple {
		ts := make([]tuple, len(lo))
		for i := range ts {
			ts[i] = tuple{lo: lo[i], val: vals[i]}
			if hi != nil {
				ts[i].hi = hi[i]
			}
		}
		sort.SliceStable(ts, func(i, j int) bool {
			if ts[i].hi != ts[j].hi {
				return ts[i].hi < ts[j].hi
			}
			return ts[i].lo < ts[j].lo
		})
		return ts
	}
	check := func(name string, want []tuple, hi, lo []uint64, vals []uint32) {
		t.Helper()
		for i, w := range want {
			got := tuple{lo: lo[i], val: vals[i]}
			if hi != nil {
				got.hi = hi[i]
			}
			if got != w {
				t.Fatalf("%s: tuple %d = %+v, want %+v", name, i, got, w)
			}
		}
	}
	var bs BinSorter
	for _, n := range []int{0, 1, 64, 65, 1<<15 + 1} {
		for _, sig := range []uint{0, 10, 38, 54, 62} { // 54: a 27-mer at m = 0
			_, lo, vals := binInput(rng, n, sig)
			want := oracle(nil, lo, vals)
			bs.Sort64(lo, vals, sig)
			check(fmt.Sprintf("64-bit n=%d sig=%d", n, sig), want, nil, lo, vals)
		}
		for _, sig := range []uint{40, 64, 94, 110} { // 94: a 55-mer at m = 8
			hi, lo, vals := binInput(rng, n, sig)
			want := oracle(hi, lo, vals)
			bs.Sort128(hi, lo, vals, sig)
			check(fmt.Sprintf("128-bit n=%d sig=%d", n, sig), want, hi, lo, vals)
		}
	}
}

// binGrouped returns n 64-bit tuples of a partition's bins [binLo, binHi)
// (bin field above the low shift bits, arrival index as payload) grouped by
// bin in arrival order, as the exchange delivers them, with each bin's
// count. keys and vals are the tuples before grouping.
func binGrouped(rng *rand.Rand, n int, shift uint, binLo, binHi int) (keys []uint64, vals []uint32, gk []uint64, gv []uint32, counts []int) {
	keys, vals = make([]uint64, n), make([]uint32, n)
	counts = make([]int, binHi-binLo)
	low := uint64(1)<<shift - 1
	for i := range keys {
		b := binLo + rng.Intn(binHi-binLo)
		keys[i] = uint64(b)<<shift | rng.Uint64()&low
		vals[i] = uint32(i)
		counts[b-binLo]++
	}
	off := make([]int, len(counts))
	for b := 1; b < len(counts); b++ {
		off[b] = off[b-1] + counts[b-1]
	}
	gk, gv = make([]uint64, n), make([]uint32, n)
	for i, k := range keys {
		b := int(k>>shift) - binLo
		gk[off[b]], gv[off[b]] = k, vals[i]
		off[b]++
	}
	return keys, vals, gk, gv, counts
}

// TestSortPairs64Binned sorts a partition of 64-bit pairs bin by bin with
// one BinSorter, as LocalSort does, and checks the partition against a
// stable sort of the ungrouped tuples: few long bins, many short ones, the
// whole key as the bin (k == m) and the maximal shift for 64-bit k-mers.
func TestSortPairs64Binned(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var bs BinSorter
	for _, n := range []int{0, 1, 2, 33, 1000, 20000} {
		for _, tc := range []struct {
			shift        uint
			binLo, binHi int
		}{
			{38, 0, 7},      // few bins → long runs (scatter levels)
			{38, 100, 5000}, // many bins → short runs (insertion leaf)
			{0, 0, 256},     // k == m: the bin is the whole key
			{60, 1, 3},      // maximal shift for 64-bit k-mers
		} {
			keys, vals, gk, gv, counts := binGrouped(rng, n, tc.shift, tc.binLo, tc.binHi)
			off := 0
			for _, c := range counts {
				bs.Sort64(gk[off:off+c], gv[off:off+c], tc.shift)
				off += c
			}
			checkSorted64(t, keys, vals, gk, gv)
		}
	}
}

// TestSortPairs64BinnedStability pins that equal keys keep arrival order
// within a bin, so the per-bin sort is interchangeable with a stable LSD
// sort of the partition.
func TestSortPairs64BinnedStability(t *testing.T) {
	keys := []uint64{1<<38 | 2, 1<<38 | 2, 1 << 38, 5<<38 | 3, 5<<38 | 1, 5<<38 | 3, 5<<38 | 1, 5<<38 | 1}
	vals := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	var bs BinSorter
	bs.Sort64(keys[:3], vals[:3], 38)
	bs.Sort64(keys[3:], vals[3:], 38)
	wantK := []uint64{1 << 38, 1<<38 | 2, 1<<38 | 2, 5<<38 | 1, 5<<38 | 1, 5<<38 | 1, 5<<38 | 3, 5<<38 | 3}
	wantV := []uint32{2, 0, 1, 4, 6, 7, 3, 5}
	for i := range wantK {
		if keys[i] != wantK[i] || vals[i] != wantV[i] {
			t.Fatalf("got %v/%v want %v/%v", keys, vals, wantK, wantV)
		}
	}
}

func TestSortPairs128Passes(t *testing.T) {
	// With high words all equal, 8 passes (the lo word) must fully sort.
	rng := rand.New(rand.NewSource(10))
	n := 2000
	hi := make([]uint64, n)
	lo := make([]uint64, n)
	vals := make([]uint32, n)
	for i := 0; i < n; i++ {
		hi[i] = 99
		lo[i] = rng.Uint64()
		vals[i] = uint32(i)
	}
	origL := append([]uint64(nil), lo...)
	origV := append([]uint32(nil), vals...)
	SortPairs128(hi, lo, vals, make([]uint64, n), make([]uint64, n), make([]uint32, n), 8)
	checkSorted64(t, origL, origV, lo, vals)
	for i := range hi {
		if hi[i] != 99 {
			t.Fatal("hi words disturbed")
		}
	}
}
