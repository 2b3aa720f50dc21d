package extsort

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// tup is one merged tuple and the run it came from.
type tup struct {
	hi, lo uint64
	val    uint32
	src    int
}

// openMerger writes runs (each already sorted by (hi, lo); hi is ignored in
// 64-bit mode) through a real Writer and opens a Merger over them.
func openMerger(t testing.TB, runs [][]tup, wide bool, blockTuples int) *Merger {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "merge.run"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	w, err := NewWriter(f, wide, false, blockTuples)
	if err != nil {
		t.Fatal(err)
	}
	rs := make([]*SegReader, len(runs))
	infos := make([]RunInfo, len(runs))
	for i, run := range runs {
		lo, val := make([]uint64, len(run)), make([]uint32, len(run))
		var hi []uint64
		if wide {
			hi = make([]uint64, len(run))
		}
		for j, x := range run {
			lo[j], val[j] = x.lo, x.val
			if wide {
				hi[j] = x.hi
			}
		}
		if infos[i], err = w.WriteRun(lo, hi, val, []uint64{0, uint64(len(run))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		rs[i] = NewSegReader(f, infos[i].Segs[0], wide, false, blockTuples)
	}
	m, err := NewMerger(rs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// mergeOracle is the merge's contract spelled out: concatenate the runs in
// run order and sort stably by (hi, lo), which leaves ties in run order.
func mergeOracle(runs [][]tup, wide bool) []tup {
	var all []tup
	for i, run := range runs {
		for _, x := range run {
			x.src = i
			if !wide {
				x.hi = 0
			}
			all = append(all, x)
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].hi != all[b].hi {
			return all[a].hi < all[b].hi
		}
		return all[a].lo < all[b].lo
	})
	return all
}

// checkMerge drains a merger over runs and compares every tuple, and the
// run Src reports for it, with the oracle.
func checkMerge(t *testing.T, runs [][]tup, wide bool, blockTuples int) {
	t.Helper()
	m := openMerger(t, runs, wide, blockTuples)
	for i, want := range mergeOracle(runs, wide) {
		hi, lo, val, ok, err := m.Next()
		if err != nil || !ok {
			t.Fatalf("tuple %d: ok=%v err=%v, want %+v", i, ok, err, want)
		}
		if got := (tup{hi, lo, val, m.Src()}); got != want {
			t.Fatalf("tuple %d: got %+v, want %+v", i, got, want)
		}
	}
	for i := 0; i < 2; i++ { // the end is sticky
		if _, _, _, ok, err := m.Next(); ok || err != nil {
			t.Fatalf("after the last tuple: ok=%v err=%v", ok, err)
		}
	}

}

// sortedRun draws n tuples from a small key domain — duplicates inside the
// run and across runs are the rule — and sorts them as a written run is.
func sortedRun(rng *rand.Rand, n int, wide bool) []tup {
	const ones = ^uint64(0)
	run := make([]tup, n)
	for i := range run {
		x := tup{lo: uint64(rng.Intn(40)), val: rng.Uint32()}
		if wide {
			x.hi = uint64(rng.Intn(3))
		}
		if rng.Intn(16) == 0 { // the sentinel's own key, live
			x.lo = ones
			if wide {
				x.hi = ones
			}
		}
		run[i] = x
	}
	sort.SliceStable(run, func(a, b int) bool {
		if run[a].hi != run[b].hi {
			return run[a].hi < run[b].hi
		}
		return run[a].lo < run[b].lo
	})
	return run
}

// TestMergerMatchesStableSort is the differential test of the flat loser
// tree: across tree shapes, key widths, runs of unequal length (empty ones
// included), duplicates within and across runs, and blocks short enough
// that equal keys straddle block boundaries, the merged stream and Src()
// equal a stable sort of the concatenated runs.
func TestMergerMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, wide := range []bool{false, true} {
		for _, k := range []int{1, 2, 3, 5, 24, 64} {
			for _, blockTuples := range []int{1, 3, 64} {
				runs := make([][]tup, k)
				for i := range runs {
					if n := rng.Intn(6); n > 0 { // one run in six is empty
						runs[i] = sortedRun(rng, 1+rng.Intn(1<<uint(2*n)), wide)
					}
				}
				t.Run(fmt.Sprintf("wide=%v/k=%d/block=%d", wide, k, blockTuples), func(t *testing.T) {
					checkMerge(t, runs, wide, blockTuples)
				})
			}
		}
	}
}

// TestMergerEdges pins the cases the same-run fast path and the rank
// encoding of exhausted leaves have to get right.
func TestMergerEdges(t *testing.T) {
	const ones = ^uint64(0)
	lo := func(keys ...uint64) []tup {
		run := make([]tup, len(keys))
		for i, k := range keys {
			run[i] = tup{lo: k, val: uint32(100*len(keys) + i)}
		}
		return run
	}
	wideOnes := func(n int) []tup {
		run := make([]tup, n)
		for i := range run {
			run[i] = tup{hi: ones, lo: ones, val: uint32(i)}
		}
		return run
	}
	for _, c := range []struct {
		name        string
		runs        [][]tup
		wide        bool
		blockTuples int
	}{
		{"no runs", nil, false, 4},
		{"only empty runs", [][]tup{nil, nil, nil}, false, 4},
		// The fast path keeps pulling run 0's 7s across three block
		// boundaries before run 1's 7s may surface.
		{"duplicates straddle blocks", [][]tup{lo(7, 7, 7, 7, 7, 9), lo(7, 7, 8)}, false, 2},
		// The successor's key repeats in a later run only: the replay must
		// still put run 0's 6 ahead of run 2's.
		{"duplicates across runs", [][]tup{lo(5, 6), lo(5, 5), lo(5, 6, 6)}, false, 1},
		// Runs 0 and 2 are exhausted (rank k+leaf, all-ones key) while
		// runs 1 and 3 still hold a live all-ones key.
		{"live all-ones beside exhausted leaves", [][]tup{lo(1), lo(ones, ones), nil, lo(2, ones)}, false, 1},
		{"wide live all-ones beside exhausted leaves", [][]tup{{{hi: 0, lo: ones}}, wideOnes(3), nil, wideOnes(1)}, true, 2},
		// Equal lo words under different hi words are different keys: the
		// fast path must compare both.
		{"wide keys differing in hi only", [][]tup{{{hi: 1, lo: 4}, {hi: 2, lo: 4}}, {{hi: 1, lo: 4}, {hi: 3, lo: 4}}}, true, 4},
	} {
		t.Run(c.name, func(t *testing.T) { checkMerge(t, c.runs, c.wide, c.blockTuples) })
	}
}

// TestMergerNextDoesNotAllocate pins the steady state: once every reader's
// block ring is warm, pulling tuples allocates nothing — in the merger or
// in the decode goroutines feeding it.
func TestMergerNextDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, wide := range []bool{false, true} {
		runs := make([][]tup, 8)
		for i := range runs {
			runs[i] = sortedRun(rng, 4096, wide)
		}
		m := openMerger(t, runs, wide, 256)
		pull := func() {
			if _, _, _, ok, err := m.Next(); !ok || err != nil {
				t.Fatalf("ok=%v err=%v", ok, err)
			}
		}
		for i := 0; i < 8*512; i++ { // past every reader's first two blocks
			pull()
		}
		if allocs := testing.AllocsPerRun(8*2048, pull); allocs != 0 {
			t.Errorf("wide=%v: %.2f allocations per Next, want 0", wide, allocs)
		}
	}
}
