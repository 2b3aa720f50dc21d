package extsort

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// benchTuples builds n sorted 64-bit tuples with clustered keys, the shape
// spilled runs actually have after the radix sort.
func benchTuples(n int) (lo []uint64, val []uint32) {
	rng := rand.New(rand.NewSource(7))
	lo = make([]uint64, n)
	val = make([]uint32, n)
	for i := range lo {
		lo[i] = rng.Uint64() >> 20 // clustered high bits: delta-friendly
		val[i] = rng.Uint32()
	}
	sort.Slice(lo, func(i, j int) bool { return lo[i] < lo[j] })
	return lo, val
}

func benchmarkWriteRun(b *testing.B, compress bool) {
	const n = 1 << 16
	lo, val := benchTuples(n)
	path := filepath.Join(b.TempDir(), "bench.run")
	b.SetBytes(int64(n * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		w, err := NewWriter(f, false, compress, 4096)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.WriteRun(lo, nil, val, []uint64{0, n}); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

func BenchmarkWriteRunRaw(b *testing.B)        { benchmarkWriteRun(b, false) }
func BenchmarkWriteRunCompressed(b *testing.B) { benchmarkWriteRun(b, true) }

// dup7Runs cuts the traffic batch-bounded merges into runs: every distinct
// key seven times, the copies landing in whichever runs arrival order put
// them, each run then sorted.
func dup7Runs(runs, perRun int) (los [][]uint64, vals [][]uint32) {
	rng := rand.New(rand.NewSource(7))
	n := runs * perRun
	all := make([]uint64, n)
	for i := 0; i < n; i += 7 {
		k := rng.Uint64() >> 11 // a 27-mer task partition: 53 significant bits
		for j := i; j < i+7 && j < n; j++ {
			all[j] = k
		}
	}
	rng.Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })
	for r := 0; r < runs; r++ {
		lo := all[r*perRun : (r+1)*perRun]
		sort.Slice(lo, func(i, j int) bool { return lo[i] < lo[j] })
		los = append(los, lo)
		vals = append(vals, make([]uint32, perRun))
	}
	return los, vals
}

// uniqueRuns is the older benchmark shape: independent runs of unique keys.
func uniqueRuns(runs, perRun int) (los [][]uint64, vals [][]uint32) {
	for r := 0; r < runs; r++ {
		lo, val := benchTuples(perRun)
		los, vals = append(los, lo), append(vals, val)
	}
	return los, vals
}

func benchmarkMerge(b *testing.B, los [][]uint64, vals [][]uint32, blockTuples int, compress bool) {
	runs, total := len(los), 0
	path := filepath.Join(b.TempDir(), "bench.run")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWriter(f, false, compress, blockTuples)
	if err != nil {
		b.Fatal(err)
	}
	infos := make([]RunInfo, runs)
	for r := range infos {
		total += len(los[r])
		if infos[r], err = w.WriteRun(los[r], nil, vals[r], []uint64{0, uint64(len(los[r]))}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	f.Close()

	b.SetBytes(int64(total * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		srs := make([]*SegReader, runs)
		for r := range srs {
			srs[r] = NewSegReader(rf, infos[r].Segs[0], false, compress, blockTuples)
		}
		mg, err := NewMerger(srs)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, _, _, ok, err := mg.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		mg.Close()
		rf.Close()
		if n != total {
			b.Fatalf("merged %d tuples, want %d", n, total)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	for _, runs := range []int{4, 16, 64} {
		for _, compress := range []bool{false, true} {
			name := fmt.Sprintf("runs=%d/raw", runs)
			if compress {
				name = fmt.Sprintf("runs=%d/zip", runs)
			}
			b.Run(name, func(b *testing.B) {
				los, vals := uniqueRuns(runs, 1<<14)
				benchmarkMerge(b, los, vals, 1024, compress)
			})
		}
	}
	// What batch-bounded executes: 24 runs, 4 096-tuple blocks, raw.
	b.Run("runs=24/dup7", func(b *testing.B) {
		los, vals := dup7Runs(24, 1<<15)
		benchmarkMerge(b, los, vals, 4096, false)
	})
}
