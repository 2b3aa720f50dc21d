package core

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"metaprep/internal/index"
	"metaprep/internal/obsv"
)

// openBucketSink plans a one-task, two-thread spilling run over idx and
// opens its bucket sink for pass 0.
func openBucketSink(t *testing.T, idx *index.Index) *bucketSink {
	t.Helper()
	cfg := Default(idx)
	cfg.Tasks, cfg.Threads = 1, 2
	cfg.SpillBudgetBytes = MinSpillBudgetBytes
	requireSpill(t, cfg)
	pl, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bk := newBucketSink(&taskState{p: pl, rank: 0}, t.TempDir())
	t.Cleanup(bk.cleanup)
	if err := bk.open(0); err != nil {
		t.Fatal(err)
	}
	if len(bk.edges[0]) < 4 {
		t.Fatalf("%d buckets: the test needs several", len(bk.edges[0])-1)
	}
	return bk
}

// bucketMessage is one message holding exactly the tuples the index puts
// in each of the sink's bins (keys whose low bits are random), shuffled;
// it also returns the bins of its keys.
func bucketMessage(bk *bucketSink, rng *rand.Rand) (tupleMsg, []int) {
	var m tupleMsg
	var bins []int
	edges := bk.edges[0]
	for b := edges[0]; b < edges[len(edges)-1]; b++ {
		for range bk.st.p.idx.MerHist[b] {
			m.lo = append(m.lo, uint64(b)<<bk.shift|rng.Uint64()&(1<<bk.shift-1))
			m.val = append(m.val, uint32(len(m.val)))
			bins = append(bins, b)
		}
	}
	rng.Shuffle(len(m.lo), func(i, j int) {
		m.lo[i], m.lo[j] = m.lo[j], m.lo[i]
		m.val[i], m.val[j] = m.val[j], m.val[i]
		bins[i], bins[j] = bins[j], bins[i]
	})
	return m, bins
}

// moveToNextBin rewrites one tuple of m from a bin a to bin a+1, for the
// first a that holds a tuple and for which cross says whether a and a+1
// lie in different buckets. It returns a.
func moveToNextBin(t *testing.T, bk *bucketSink, m tupleMsg, bins []int, cross bool) int {
	t.Helper()
	edges := bk.edges[0]
	for i, a := range bins {
		if a+1 < edges[len(edges)-1] && (bk.bucketOf[a-bk.binLo] != bk.bucketOf[a+1-bk.binLo]) == cross {
			m.lo[i] = m.lo[i]&(1<<bk.shift-1) | uint64(a+1)<<bk.shift
			return a
		}
	}
	t.Fatal("no tuple to move")
	return 0
}

// drain reads every source to its end and returns the keys in stream
// order and the first source error.
func drain(srcs []*groupSource) ([]uint64, error) {
	var keys []uint64
	for _, g := range srcs {
		for {
			_, lo, vals, ok := g.next()
			if !ok {
				break
			}
			for range vals {
				keys = append(keys, lo)
			}
		}
		g.close()
		if g.err != nil {
			return keys, g.err
		}
	}
	return keys, nil
}

// TestBucketSinkStaleCounts feeds the bucket sink one message that departs
// from the index by a single tuple moved to the next bin. Across a bucket
// boundary the bucket overflows: receive reports the stale index before it
// buffers or writes anything. Inside a bucket every count still matches,
// so receive and seal accept it and the loaded bucket's bin check reports
// the bin that is one tuple short. The unmodified message drains in key
// order.
func TestBucketSinkStaleCounts(t *testing.T) {
	td := spillDataset(t, 94, smallOpts())
	rng := rand.New(rand.NewSource(7))

	t.Run("exact", func(t *testing.T) {
		bk := openBucketSink(t, td.idx)
		m, _ := bucketMessage(bk, rng)
		if err := bk.receive(0, m); err != nil {
			t.Fatal(err)
		}
		srcs, err := bk.seal(0)
		if err != nil {
			t.Fatal(err)
		}
		keys, err := drain(srcs)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != len(m.lo) || !slices.IsSorted(keys) {
			t.Fatalf("sources yield %d keys (sorted %v), want the message's %d in order",
				len(keys), slices.IsSorted(keys), len(m.lo))
		}
	})

	t.Run("cross-bucket", func(t *testing.T) {
		bk := openBucketSink(t, td.idx)
		m, bins := bucketMessage(bk, rng)
		a := moveToNextBin(t, bk, m, bins, true)
		err := bk.receive(0, m)
		want := fmt.Sprintf("(bins %d–", a+1)
		if !errors.Is(err, errStaleIndex) || !strings.Contains(err.Error(), want) {
			t.Fatalf("receive with a tuple moved from bin %d to the next bucket: err = %v, want the stale-index error naming the bucket starting at bin %d", a, err, a+1)
		}
		if slices.ContainsFunc(bk.got, func(n uint64) bool { return n != 0 }) {
			t.Error("receive buffered tuples before reporting the overflow")
		}
		if fi, err := bk.f.Stat(); err != nil || fi.Size() != 0 {
			t.Errorf("spill file after the overflow: %v bytes (err %v), want nothing written", fi.Size(), err)
		}
	})

	t.Run("in-bucket", func(t *testing.T) {
		bk := openBucketSink(t, td.idx)
		m, bins := bucketMessage(bk, rng)
		a := moveToNextBin(t, bk, m, bins, false)
		if err := bk.receive(0, m); err != nil {
			t.Fatalf("receive with a tuple moved inside its bucket: %v, want the bucket check to pass", err)
		}
		srcs, err := bk.seal(0)
		if err != nil {
			t.Fatalf("seal with a tuple moved inside its bucket: %v, want every bucket full", err)
		}
		_, err = drain(srcs)
		want := fmt.Sprintf("bin %d does not hold", a)
		if !errors.Is(err, errStaleIndex) || !strings.Contains(err.Error(), want) {
			t.Fatalf("loading after a tuple moved from bin %d to %d: err = %v, want the stale-index error %q", a, a+1, err, want)
		}
	})
}

// TestBucketTruncatedRegion cuts the sealed spill file in half: the first
// bucket whose region now ends early fails to load with the stale-index
// error, and the buckets before it still drain in order.
func TestBucketTruncatedRegion(t *testing.T) {
	td := spillDataset(t, 94, smallOpts())
	bk := openBucketSink(t, td.idx)
	m, _ := bucketMessage(bk, rand.New(rand.NewSource(8)))
	if err := bk.receive(0, m); err != nil {
		t.Fatal(err)
	}
	srcs, err := bk.seal(0)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := bk.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(m.lo)) * 12; fi.Size() != want {
		t.Fatalf("spill file holds %d bytes, want %d: 12 raw bytes a tuple, no framing", fi.Size(), want)
	}
	if err := bk.f.Truncate(fi.Size() / 2); err != nil {
		t.Fatal(err)
	}
	keys, err := drain(srcs)
	if !errors.Is(err, errStaleIndex) || !strings.Contains(err.Error(), "ends before") {
		t.Fatalf("draining a truncated spill file: err = %v, want the stale-index error for a short region", err)
	}
	if len(keys) == 0 || !slices.IsSorted(keys) {
		t.Errorf("the buckets before the cut yield %d keys (sorted %v)", len(keys), slices.IsSorted(keys))
	}
}

// TestRunFailsOnInBucketMove is TestRunFailsOnBinOverflow for a spilling
// run whose moved count stays inside one bucket: Run must return the
// stale-index error from the loaded bucket's bin check.
func TestRunFailsOnInBucketMove(t *testing.T) {
	td := spillDataset(t, 95, smallOpts())
	cfg := Default(td.idx)
	cfg.Tasks, cfg.Threads = 1, 2
	cfg.SpillBudgetBytes = MinSpillBudgetBytes
	pl, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, capacity := pl.bucketShape()
	edges, _, _ := planBuckets(td.idx.MerHist, pl.pt.ThreadCuts(0, 0), capacity)
	inBucket := func(a int) bool {
		k, _ := slices.BinarySearch(edges, a+1)
		return k < len(edges) && edges[k] != a+1
	}
	idx, a := staleMoveIndex(t, td.idx, 1, 2, 1, inBucket)
	cfg.Index = idx
	_, err = Run(cfg)
	if !errors.Is(err, errStaleIndex) || !strings.Contains(err.Error(), fmt.Sprintf("bin %d does not hold", a)) &&
		!strings.Contains(err.Error(), fmt.Sprintf("bin %d does not hold", a+1)) {
		t.Fatalf("Run with a count moved from bin %d to %d inside one bucket: err = %v, want the bin check's stale-index error naming one of them", a, a+1, err)
	}
}

// TestBucketBinFloor forces the bin floor: poly-A reads put one m-mer bin
// over the bucket capacity of a 64 KiB budget. That bin gets a bucket of
// its own, every bucket area grows to hold it, and the run's labels and
// .mpa kmers section equal the in-RAM run's; the tuple-memory gauge
// charges the grown areas, exceeding the budget by at most their excess.
func TestBucketBinFloor(t *testing.T) {
	opts := smallOpts()
	base := spillDataset(t, 96, opts)
	polyA := filepath.Join(t.TempDir(), "polyA.fastq")
	var seqs [][]byte
	for range 40 {
		seqs = append(seqs, []byte(strings.Repeat("A", 50)))
	}
	writeFastqFile(t, polyA, seqs)
	td := &testData{paths: append(slices.Clone(base.paths), polyA), seqs: append(slices.Clone(base.seqs), seqs...)}
	idx, err := index.Build(td.paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	td.idx = idx
	want := naiveLabels(td, opts.K, false, Filter{})

	dir := t.TempDir()
	run := func(budget int64, obs *obsv.Collector) (*Result, string) {
		cfg := Default(idx)
		cfg.Tasks, cfg.Threads = 1, 2
		cfg.SpillBudgetBytes = budget
		cfg.ArtifactOut = filepath.Join(dir, fmt.Sprintf("b%d.mpa", budget))
		cfg.Obs = obs
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, cfg.ArtifactOut
	}
	ref, refMPA := run(0, nil)

	cfg := Default(idx)
	cfg.Tasks, cfg.Threads = 1, 2
	cfg.SpillBudgetBytes = MinSpillBudgetBytes
	requireSpill(t, cfg)
	pl, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	arena, capacity := pl.bucketShape()
	_, _, largest := planBuckets(idx.MerHist, pl.pt.ThreadCuts(0, 0), capacity)
	if largest <= capacity {
		t.Fatalf("fixture error: the largest bucket holds %d tuples, capacity %d: the floor never fires", largest, capacity)
	}
	obs := obsv.New()
	res, resMPA := run(MinSpillBudgetBytes, obs)
	assertSameLabels(t, want, res.Labels)
	assertSameResult(t, ref, res)
	if a, b := kmersCRC(t, refMPA), kmersCRC(t, resMPA); a != b {
		t.Errorf("kmers CRC %08x spilling with the bin floor, %08x in RAM", b, a)
	}

	bpt := pl.bytesPerTuple()
	grown := 2 * uint64(cfg.Threads) * largest
	excess := (grown - arena) * bpt
	peak := obs.Counter(0, "extsort/peak_tuple_bytes").Value()
	t.Logf("capacity %d, largest bucket %d: areas grow by %d B; peak %d B, budget %d B", capacity, largest, excess, peak, cfg.SpillBudgetBytes)
	if minPeak := grown * bpt; peak < minPeak {
		t.Errorf("peak tuple memory %d B does not charge the grown areas (%d B)", peak, minPeak)
	}
	if peak > uint64(cfg.SpillBudgetBytes)+excess {
		t.Errorf("peak tuple memory %d B exceeds the budget %d B by more than the floor's %d B", peak, cfg.SpillBudgetBytes, excess)
	}
}

// TestBucketSpillBytesExact pins the spill volume: every tuple is written
// once, raw, with no header or framing, so a spilling run's SpillBytes is
// its tuple count times the tuple size, at both key widths.
func TestBucketSpillBytesExact(t *testing.T) {
	for _, k := range []int{11, 35} {
		td := spillDataset(t, 97, index.Options{K: k, M: 4, ChunkSize: 2000})
		cfg := Default(td.idx)
		cfg.Tasks, cfg.Threads, cfg.Passes = 2, 2, 2
		cfg.SpillBudgetBytes = MinSpillBudgetBytes
		requireSpill(t, cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var spilled int64
		for _, rep := range res.PerTask {
			spilled += rep.SpillBytes
		}
		bpt := int64(12)
		if k > 31 {
			bpt = 20
		}
		if want := int64(res.Tuples) * bpt; spilled != want {
			t.Errorf("k=%d: spilled %d B, want %d tuples × %d B = %d", k, spilled, res.Tuples, bpt, want)
		}
	}
}
