package metaprep_test

// bench_test.go holds one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benchmarks for the design decisions
// DESIGN.md calls out. The full paper-style tables are produced by
// cmd/mpbench; these benchmarks exercise the same code paths at reduced
// scale so `go test -bench=. -benchmem` exercises every experiment.

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"metaprep"
	"metaprep/internal/fastq"
	"metaprep/internal/kmer"
	"metaprep/internal/radix"
	"metaprep/internal/stats"
	"metaprep/internal/svcc"
	"metaprep/internal/unionfind"
)

// fixture lazily generates one small dataset per preset and caches indexes,
// shared by all benchmarks in the process.
type fixture struct {
	dir string

	mu      sync.Mutex
	data    map[string]*metaprep.Dataset
	indexes map[string]*metaprep.Index
}

var fx = &fixture{data: map[string]*metaprep.Dataset{}, indexes: map[string]*metaprep.Index{}}

func (f *fixture) dataset(b *testing.B, name string, scale float64) *metaprep.Dataset {
	b.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dir == "" {
		dir, err := os.MkdirTemp("", "metaprep-bench-")
		if err != nil {
			b.Fatal(err)
		}
		f.dir = dir
	}
	if ds, ok := f.data[name]; ok {
		return ds
	}
	spec, err := metaprep.Preset(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := metaprep.Generate(spec, filepath.Join(f.dir, name))
	if err != nil {
		b.Fatal(err)
	}
	f.data[name] = ds
	return ds
}

func (f *fixture) index(b *testing.B, name string, scale float64, k int) (*metaprep.Index, *metaprep.Dataset) {
	b.Helper()
	ds := f.dataset(b, name, scale)
	key := name + string(rune('0'+k%10)) + string(rune('0'+k/10))
	f.mu.Lock()
	defer f.mu.Unlock()
	if idx, ok := f.indexes[key]; ok {
		return idx, ds
	}
	opts := metaprep.DefaultIndexOptions()
	opts.K = k
	opts.Paired = true
	opts.ChunkSize = 256 << 10
	idx, err := metaprep.BuildIndex(ds.Files, opts)
	if err != nil {
		b.Fatal(err)
	}
	f.indexes[key] = idx
	return idx, ds
}

func runPipeline(b *testing.B, idx *metaprep.Index, tasks, threads, passes int, filter metaprep.Filter, mutate func(*metaprep.Config)) *metaprep.Result {
	b.Helper()
	cfg := metaprep.DefaultConfig(idx)
	cfg.Tasks = tasks
	cfg.Threads = threads
	cfg.Passes = passes
	cfg.Filter = filter
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := metaprep.Partition(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable2Generate covers Table 2: synthetic dataset generation.
func BenchmarkTable2Generate(b *testing.B) {
	spec, err := metaprep.Preset("HG", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(spec.TotalBases())
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "t2-")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := metaprep.Generate(spec, dir); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
}

// BenchmarkTable5IndexCreate covers Table 5: sequential IndexCreate.
func BenchmarkTable5IndexCreate(b *testing.B) {
	ds := fx.dataset(b, "HG", 0.1)
	opts := metaprep.DefaultIndexOptions()
	opts.Paired = true
	opts.ChunkSize = 256 << 10
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metaprep.BuildIndex(ds.Files, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5SingleNode covers Fig. 5: the single-node pipeline.
func BenchmarkFigure5SingleNode(b *testing.B) {
	idx, ds := fx.index(b, "HG", 0.1, 27)
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPipeline(b, idx, 1, 2, 1, metaprep.Filter{}, nil)
	}
}

// BenchmarkFigure6MultiNode covers Fig. 6: the multi-task pipeline with the
// Edison network model charging the exchange steps.
func BenchmarkFigure6MultiNode(b *testing.B) {
	idx, ds := fx.index(b, "HG", 0.1, 27)
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPipeline(b, idx, 4, 1, 1, metaprep.Filter{}, func(c *metaprep.Config) {
			c.Network = metaprep.EdisonNetwork()
		})
	}
}

// BenchmarkFigure7LargeDataset covers Fig. 7: many tasks, many passes.
func BenchmarkFigure7LargeDataset(b *testing.B) {
	idx, ds := fx.index(b, "IS", 0.02, 27)
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPipeline(b, idx, 16, 1, 8, metaprep.Filter{}, nil)
	}
}

// BenchmarkFigure8LoadBalance covers Fig. 8: the per-task accounting of a
// 16-task run, including the box-plot summary computation.
func BenchmarkFigure8LoadBalance(b *testing.B) {
	idx, ds := fx.index(b, "MM", 0.1, 27)
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runPipeline(b, idx, 16, 1, 4, metaprep.Filter{}, nil)
		var sample []float64
		for _, rep := range res.PerTask {
			sample = append(sample, rep.Steps.LocalSort.Seconds())
		}
		if f := stats.Summarize(sample); f.Max < f.Min {
			b.Fatal("summary broken")
		}
	}
}

// BenchmarkTable3MultiPass covers Table 3: the multi-pass configuration.
func BenchmarkTable3MultiPass(b *testing.B) {
	idx, ds := fx.index(b, "MM", 0.1, 27)
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runPipeline(b, idx, 4, 1, 4, metaprep.Filter{}, nil)
		if res.MemoryPerTask <= 0 {
			b.Fatal("no memory accounting")
		}
	}
}

// BenchmarkFigure9KmerGenVsKMC covers Fig. 9: the KMC 2-style counter on
// the same input as the pipeline's KmerGen benchmarks.
func BenchmarkFigure9KmerGenVsKMC(b *testing.B) {
	ds := fx.dataset(b, "HG", 0.1)
	opts := metaprep.DefaultCounterOptions()
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := metaprep.CountKmers(ds.Files, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortThroughputLocal and ...Baseline cover §4.2.2. The
// sub-benchmarks compare the paper's 8-bit digits against 16-bit digits and
// the key-range-aware entry point that picks a width and pass count itself
// (for 54-bit keys it skips the empty top pass).
func BenchmarkSortThroughputLocal(b *testing.B) {
	n := 1 << 21
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	vals := make([]uint32, n)
	for i := range keys {
		keys[i] = rng.Uint64() & (1<<54 - 1)
		vals[i] = uint32(i)
	}
	work := make([]uint64, n)
	workV := make([]uint32, n)
	tmpK := make([]uint64, n)
	tmpV := make([]uint32, n)
	run := func(b *testing.B, sortFn func([]uint64, []uint32)) {
		b.SetBytes(int64(n * 12))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(work, keys)
			copy(workV, vals)
			sortFn(work, workV)
		}
	}
	b.Run("Digit8", func(b *testing.B) {
		run(b, func(k []uint64, v []uint32) { radix.SortPairs64(k, v, tmpK, tmpV, 8) })
	})
	b.Run("Digit16", func(b *testing.B) {
		run(b, func(k []uint64, v []uint32) { radix.SortPairs64Digit16(k, v, tmpK, tmpV, 4) })
	})
	b.Run("Range54", func(b *testing.B) {
		run(b, func(k []uint64, v []uint32) {
			radix.SortPairs64Range(k, v, tmpK, tmpV, 0, 1<<54-1)
		})
	})
}

func BenchmarkSortThroughputBaseline(b *testing.B) {
	n := 1 << 21
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
		copy(work, keys)
		copy(workV, vals)
		radix.BaselineSort(work, workV, tmpK, tmpV, 1)
	}
}

// benchEdges builds a read-graph edge list once for the Table 4 benchmarks.
var benchEdges struct {
	once  sync.Once
	reads int
	edges []unionfind.Edge
}

func table4Edges(b *testing.B) (int, []unionfind.Edge) {
	b.Helper()
	ds := fx.dataset(b, "HG", 0.1)
	benchEdges.once.Do(func() {
		byKmer := map[uint64][]uint32{}
		pair := 0
		for _, path := range ds.Files {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			r := fastq.NewReader(f)
			rec := 0
			for {
				record, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				id := uint32(pair + rec/2)
				kmer.ForEach64(record.Seq, 27, func(_ int, m kmer.Kmer64) {
					byKmer[uint64(m)] = append(byKmer[uint64(m)], id)
				})
				rec++
			}
			pair += rec / 2
			f.Close()
		}
		for _, reads := range byKmer {
			for _, r := range reads[1:] {
				if r != reads[0] {
					benchEdges.edges = append(benchEdges.edges, unionfind.Edge{U: reads[0], V: r})
				}
			}
		}
		benchEdges.reads = pair
	})
	return benchEdges.reads, benchEdges.edges
}

// BenchmarkTable4VsAPLB covers Table 4's baseline: Shiloach-Vishkin over
// the read graph (compare with BenchmarkTable4UnionFind).
func BenchmarkTable4VsAPLB(b *testing.B) {
	n, edges := table4Edges(b)
	b.SetBytes(int64(len(edges) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svcc.Run(n, edges, 1)
	}
}

// BenchmarkTable4UnionFind is METAPREP's side of the Table 4 comparison.
func BenchmarkTable4UnionFind(b *testing.B) {
	n, edges := table4Edges(b)
	b.SetBytes(int64(len(edges) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := unionfind.New(n)
		d.ProcessEdges(edges, 1)
	}
}

// BenchmarkTable6LargeK covers Table 6: the 128-bit (k = 63) tuple path.
func BenchmarkTable6LargeK(b *testing.B) {
	idx, ds := fx.index(b, "MM", 0.1, 63)
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPipeline(b, idx, 1, 2, 1, metaprep.Filter{}, nil)
	}
}

// BenchmarkTable7FilterSweep covers Table 7: the frequency-filtered run.
func BenchmarkTable7FilterSweep(b *testing.B) {
	idx, ds := fx.index(b, "MM", 0.1, 27)
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runPipeline(b, idx, 1, 2, 1, metaprep.Filter{Min: 10, Max: 30}, nil)
		if res.LargestSize == 0 {
			b.Fatal("filter destroyed everything")
		}
	}
}

// BenchmarkTable8AssemblyTime covers Table 8: the MEGAHIT-style multi-k
// assembler on a whole dataset.
func BenchmarkTable8AssemblyTime(b *testing.B) {
	ds := fx.dataset(b, "HG", 0.1)
	opts := metaprep.DefaultAssemblyOptions()
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := metaprep.AssembleFiles(ds.Files, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable9AssemblyQuality covers Table 9: contig statistics of the
// partitioned assembly (largest component only, KF ≤ 30).
func BenchmarkTable9AssemblyQuality(b *testing.B) {
	idx, ds := fx.index(b, "HG", 0.1, 27)
	outDir := filepath.Join(fx.dir, "t9")
	res := runPipeline(b, idx, 1, 2, 1, metaprep.Filter{Max: 30}, func(c *metaprep.Config) {
		c.OutDir = outDir
	})
	lc := filepath.Join(fx.dir, "t9-lc.fastq")
	other := filepath.Join(fx.dir, "t9-other.fastq")
	if err := metaprep.MergeOutput(res, lc, other); err != nil {
		b.Fatal(err)
	}
	opts := metaprep.DefaultAssemblyOptions()
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := metaprep.AssembleFiles([]string{lc}, opts)
		if err != nil {
			b.Fatal(err)
		}
		if stats.N50 == 0 {
			b.Fatal("no contigs")
		}
	}
}

// BenchmarkStreamTriad covers the evaluation setup's bandwidth quote.
func BenchmarkStreamTriad(b *testing.B) {
	n := 1 << 22
	b.SetBytes(int64(n * 24))
	for i := 0; i < b.N; i++ {
		if stats.StreamTriad(n, 1) <= 0 {
			b.Fatal("triad failed")
		}
	}
}

// --- ablation benchmarks (DESIGN.md "key design decisions") ---------------

// BenchmarkAblationScatter measures the synchronization the index tables
// remove from KmerGen (§3.2.2) at kernel level: four threads scatter keys
// into four destination regions, each thread advancing its own precomputed
// cursors into exclusive sub-regions (the pipeline's only write pattern)
// against all threads bumping one atomic cursor per destination. Mirrors the
// scatter rows of `mpbench -exp ablate`.
func BenchmarkAblationScatter(b *testing.B) {
	const n, threads, dsts = 1 << 21, 4, 4
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() & (1<<54 - 1)
	}
	dst := func(k uint64) int { return int(k>>20) % dsts }
	// cursor[t*dsts+d]: where thread t's sub-region of destination d starts,
	// counted ahead of the scatter like the index tables count tuples.
	cursor := make([]int, threads*dsts)
	cnt := make([]int, threads*dsts)
	for t := 0; t < threads; t++ {
		for _, k := range keys[t*n/threads : (t+1)*n/threads] {
			cnt[t*dsts+dst(k)]++
		}
	}
	dstOff := make([]int, dsts)
	off := 0
	for d := 0; d < dsts; d++ {
		dstOff[d] = off
		for t := 0; t < threads; t++ {
			cursor[t*dsts+d] = off
			off += cnt[t*dsts+d]
		}
	}
	out := make([]uint64, n)
	run := func(b *testing.B, reset func(), body func(t int, block []uint64)) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			reset()
			var wg sync.WaitGroup
			for t := 0; t < threads; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					body(t, keys[t*n/threads:(t+1)*n/threads])
				}(t)
			}
			wg.Wait()
		}
	}
	b.Run("PerThreadCursors", func(b *testing.B) {
		run(b, func() {}, func(t int, block []uint64) {
			cur := append([]int(nil), cursor[t*dsts:(t+1)*dsts]...)
			for _, k := range block {
				d := dst(k)
				out[cur[d]] = k
				cur[d]++
			}
		})
	})
	b.Run("SharedAtomicCursor", func(b *testing.B) {
		shared := make([]atomic.Int64, dsts)
		reset := func() {
			for d := range shared {
				shared[d].Store(int64(dstOff[d]))
			}
		}
		run(b, reset, func(t int, block []uint64) {
			for _, k := range block {
				out[shared[dst(k)].Add(1)-1] = k
			}
		})
	})
}

// BenchmarkAblationCCOptOn vs ...Off measures the §3.5.1 multi-pass
// component-ID enumeration.
func BenchmarkAblationCCOptOn(b *testing.B) {
	idx, ds := fx.index(b, "MM", 0.1, 27)
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPipeline(b, idx, 1, 2, 4, metaprep.Filter{}, nil)
	}
}

func BenchmarkAblationCCOptOff(b *testing.B) {
	idx, ds := fx.index(b, "MM", 0.1, 27)
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPipeline(b, idx, 1, 2, 4, metaprep.Filter{}, func(c *metaprep.Config) {
			c.CCOpt = false
		})
	}
}

// BenchmarkAblationRadixDigits compares the paper's 8-bit digits with
// 16-bit digits (§3.4's locality claim).
func BenchmarkAblationRadixDigits8(b *testing.B) {
	benchDigits(b, func(k []uint64, v []uint32, tk []uint64, tv []uint32) {
		radix.SortPairs64(k, v, tk, tv, 8)
	})
}

func BenchmarkAblationRadixDigits16(b *testing.B) {
	benchDigits(b, func(k []uint64, v []uint32, tk []uint64, tv []uint32) {
		radix.SortPairs64Digit16(k, v, tk, tv, 4)
	})
}

func benchDigits(b *testing.B, sortFn func([]uint64, []uint32, []uint64, []uint32)) {
	n := 1 << 21
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	vals := make([]uint32, n)
	for i := range keys {
		keys[i] = rng.Uint64() & (1<<54 - 1)
		vals[i] = uint32(i)
	}
	work := make([]uint64, n)
	workV := make([]uint32, n)
	tmpK := make([]uint64, n)
	tmpV := make([]uint32, n)
	b.SetBytes(int64(n * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, keys)
		copy(workV, vals)
		sortFn(work, workV, tmpK, tmpV)
	}
}

// BenchmarkPipelineBulkExchange runs the full multi-task pipeline under the
// Edison network model, so the §3.3 bulk all-to-all carries a modeled cost
// in its KmerGen-Comm step.
func BenchmarkPipelineBulkExchange(b *testing.B) {
	idx, ds := fx.index(b, "HG", 0.1, 27)
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runPipeline(b, idx, 4, 1, 2, metaprep.Filter{}, func(c *metaprep.Config) {
			c.Network = metaprep.EdisonNetwork()
		})
		if res.Steps.KmerGenComm < 0 {
			b.Fatal("negative exchange step")
		}
	}
}

// BenchmarkDistributedCount runs the pipeline-as-counter mode (the
// abstract's subroutine-reuse claim) for comparison with
// BenchmarkFigure9KmerGenVsKMC.
func BenchmarkDistributedCount(b *testing.B) {
	idx, ds := fx.index(b, "HG", 0.1, 27)
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := metaprep.DefaultConfig(idx)
		cfg.Threads = 2
		if _, err := metaprep.CountKmersDistributed(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineBackHalf measures the back half end to end: the
// pipelined delta tree merge, the tree broadcast and the zero-copy
// overlapped CC-I/O, writing the full partitioned output over the Edison
// network model.
func BenchmarkPipelineBackHalf(b *testing.B) {
	idx, ds := fx.index(b, "HG", 0.1, 27)
	outDir := filepath.Join(fx.dir, "backhalf-bench")
	b.SetBytes(ds.Bases)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runPipeline(b, idx, 4, 2, 2, metaprep.Filter{}, func(c *metaprep.Config) {
			c.Network = metaprep.EdisonNetwork()
			c.OutDir = outDir
		})
		if len(res.LCFiles) == 0 {
			b.Fatal("no output written")
		}
	}
}
