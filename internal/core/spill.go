package core

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
	"unsafe"

	"metaprep/internal/container"
	"metaprep/internal/obsv"
	"metaprep/internal/radix"
)

// spill.go implements bucketSink, the tupleSink of a spilling plan
// (Config.SpillBudgetBytes): when a pass's received partition would exceed
// the budget, the exchange spills every tuple into its bucket on disk and
// LocalCC reads the buckets back one at a time. A bucket is a run of
// consecutive m-mer bins inside one LocalCC thread's bin range whose exact
// tuple count, from the index's m-mer histogram, fits one bucket area: the
// on-disk counterpart of binSink's receive groups. Partitioning by key
// range and sorting each partition in RAM needs no merge (the out-of-core
// scheme of Li et al. and KMC 2); the index's exact counts make the
// partition exact before a pass starts.
//
// receive scatters each message by bucket into a small write buffer per
// bucket and appends a full buffer to the bucket's region of the pass's
// spill file: one file per (rank, pass), bucket k's region at the prefix
// sum of the counts before it, raw words with no framing (the exact counts
// replace it). A region holds its bucket's key words, then its high key
// words in 128-bit mode, then its values, each column in memory order, so
// a write or a load moves every column with one system call and no encode
// or decode pass (wordBytes). seal flushes the partial buffers and hands
// LocalCC thread d a groupSource over its buckets: when the source
// runs dry it reads the thread's next bucket into the thread's bucket
// area, sorts it in place with radix.BinSorter over the bits the bucket's
// bin span leaves free, checks each bin's first and last tuple as binSink
// does, and yields zero-copy groups from the area. From there the pass is
// the in-RAM pass: the same consumer sees the same equal-key groups, so
// labels, edges, the frequency spectrum and the artifact tee match the bin
// sink's (TestSpillParity, TestArtifactShapeContract).
//
// Memory: the budget covers the generation buffer (kmerOut: two budget/8
// slots, see plan.groupChunks) and the arena, which is the rest. While a
// pass receives, the arena is the write buffers, an equal share per bucket;
// while it loads, the write buffers are idle and the arena is T (bucket
// area, sort scratch) pairs, so a bucket holds up to a 2T-th of the arena.
// The two phases never overlap within a task. A bin larger than that gets
// a bucket of its own and every area grows to hold it (the bin floor): the
// excess is charged to the plan and to extsort/peak_tuple_bytes, as the
// chunk floor is. A task acquires this working set once and every pass
// reuses it; the arena goes back once the last pass's sources close, so it
// is not held through MergeCC and CC-I/O.

// runScratchPrefix names a run's one scratch directory.
const runScratchPrefix = "metaprep-run-"

// runScratch creates the run's one scratch directory under cfg.SpillDir
// (the OS temp dir when empty): every spill file, artifact part and delta
// artifact of the run lives in it. It returns "" when the run has nothing
// to hold (os.RemoveAll of "" is a no-op, so callers defer the removal
// unconditionally and the directory goes on every exit path).
func (p *plan) runScratch() (string, error) {
	c := p.cfg
	if !c.ArtifactDelta && (c.ArtifactIn != "" || !p.spill && c.ArtifactOut == "") {
		return "", nil
	}
	return os.MkdirTemp(c.SpillDir, runScratchPrefix)
}

// SweepScratch removes the run scratch directories under root, and those
// an earlier release named (its per-job "job-" and per-run
// "metaprep-spill-" directories), logging each to lg, and returns their
// paths. Only a run that died with its process leaves one behind (every
// live exit path removes its own), so call it at startup, before any run
// uses root. Entries with other names and plain files are left alone:
// root may be a shared scratch filesystem. A missing root is not an error.
func SweepScratch(lg *slog.Logger, root string) ([]string, error) {
	return container.SweepDirs(lg, root, runScratchPrefix, "job-", "metaprep-spill-")
}

// bucketSink is a spilling task's working set, acquired once and reused by
// every pass.
type bucketSink struct {
	st    *taskState
	dir   string
	wide  bool
	bpt   uint64 // bytes per tuple
	shift uint   // bit position of a 64-bit key's bin field

	// edges[s] cuts pass s's bin range into buckets: bucket k holds bins
	// [edges[s][k], edges[s][k+1]). Thread d's buckets are
	// [first[s][d], first[s][d+1]).
	edges, first [][]int
	// area is a bucket area's capacity in tuples, and its sort scratch's:
	// a 2T-th of the budget's arena, or the largest bucket (the bin floor).
	area uint64

	// arena is the write buffers while a pass receives and thread d's
	// bucket area and sort scratch, [2d·area, (2d+1)·area) and
	// [(2d+1)·area, (2d+2)·area), while it loads; mem is its bytes, as the
	// gauge charges them.
	arena   *tupleBuf
	mem     int64
	sorters []radix.BinSorter
	loaders []bucketLoader
	srcs    []*groupSource

	// The open pass: its spill file, its first bin and its bins' offsets
	// in bin order (binOff[b-binLo]: bucket k's region is tuples
	// [binOff[edges[k]-binLo], binOff[edges[k+1]-binLo]) of the file),
	// each bin's bucket, the write buffers' size w, and per bucket the
	// tuples received, those written, and the open message's count.
	f               *os.File
	path            string
	s, binLo        int
	binOff          []uint64
	bucketOf        []int32
	w               uint64
	got, wrote, cnt []uint64

	// live counts the pass's sources not yet closed; when the last pass's
	// last one closes, the arena goes back.
	live atomic.Int32
	last bool
}

// newBucketSink plans every pass's buckets for this task and acquires the
// arena and the tables for the largest pass.
func newBucketSink(st *taskState, dir string) *bucketSink {
	pl, T := st.p, st.p.cfg.Threads
	bk := &bucketSink{
		st: st, dir: dir, wide: !pl.use64(), bpt: pl.bytesPerTuple(),
		shift:   2 * uint(pl.idx.Opts.K-pl.idx.Opts.M),
		sorters: make([]radix.BinSorter, T),
		loaders: make([]bucketLoader, T),
		srcs:    make([]*groupSource, T),
	}
	arena, capacity := pl.bucketShape()
	bk.area = capacity
	var bins, buckets int
	for s := 0; s < pl.cfg.Passes; s++ {
		lo, hi := pl.pt.TaskRange(s, st.rank)
		edges, first, largest := planBuckets(pl.idx.MerHist, pl.pt.ThreadCuts(s, st.rank), capacity)
		bk.edges, bk.first = append(bk.edges, edges), append(bk.first, first)
		bk.area = max(bk.area, largest)
		bins, buckets = max(bins, hi-lo), max(buckets, len(edges)-1)
	}
	// A bucket's write buffer holds at least one tuple (the write floor).
	arena = max(arena, uint64(2*T)*bk.area, uint64(buckets))
	bk.arena = pl.cfg.acquireTupleBuf(arena, bk.wide)
	for d := range bk.srcs {
		bk.loaders[d] = bucketLoader{bk: bk, d: d}
		bk.srcs[d] = &groupSource{}
		a0, a1, a2 := uint64(2*d)*bk.area, uint64(2*d+1)*bk.area, uint64(2*d+2)*bk.area
		var th []uint64
		if bk.wide {
			th = bk.arena.hi[a1:a2:a2]
		}
		bk.sorters[d].Use(bk.arena.lo[a1:a2:a2], th, bk.arena.val[a1:a2:a2])
		bk.loaders[d].view = bk.arena.view(a0, a1)
	}
	bk.binOff = make([]uint64, bins+1)
	bk.bucketOf = make([]int32, bins)
	bk.got, bk.wrote, bk.cnt = make([]uint64, buckets), make([]uint64, buckets), make([]uint64, buckets)
	bk.mem = bk.arena.memBytes()
	st.spillMemAdd(bk.mem)
	return bk
}

// bucketShape sizes a spilling task's arena in tuples, the budget less the
// generation buffer's quarter (planned as two budget/8 slots, whatever the
// rounds fill), and a bucket area's capacity before the bin floor: half of
// one thread's share of the arena.
func (p *plan) bucketShape() (arena, capacity uint64) {
	budget, T := p.budgetTuples, uint64(p.cfg.Threads)
	arena = max(budget-2*(budget/8), 2*T)
	return arena, arena / (2 * T)
}

// planBuckets cuts a task's pass range, thread range by thread range
// (cuts, T+1 bin boundaries), into buckets: runs of consecutive bins whose
// counts sum to at most capacity, a bin that alone exceeds it making a
// bucket of its own. It returns the bucket edges in bins, each thread's
// first bucket (and the bucket count last), and the largest bucket.
func planBuckets(hist []uint64, cuts []int, capacity uint64) (edges, first []int, largest uint64) {
	T := len(cuts) - 1
	first = make([]int, T+1)
	for d := 0; d < T; d++ {
		first[d] = len(edges)
		for b := cuts[d]; b < cuts[d+1]; {
			edges = append(edges, b)
			n := hist[b]
			for b++; b < cuts[d+1] && n+hist[b] <= capacity; b++ {
				n += hist[b]
			}
			largest = max(largest, n)
		}
	}
	first[T] = len(edges)
	return append(edges, cuts[T]), first, largest
}

// open closes the previous pass's spill file and lays out pass s's: every
// bin's offset from the index, every bucket's region from its bins', and
// the write buffers, an equal share of the arena per bucket.
func (bk *bucketSink) open(s int) error {
	bk.closePass()
	st := bk.st
	pl := st.p
	lo, hi := pl.pt.TaskRange(s, st.rank)
	edges := bk.edges[s]
	nbk := len(edges) - 1
	bk.s, bk.binLo = s, lo
	pl.binOffsets(bk.binOff, lo, hi)
	for k := 0; k < nbk; k++ {
		for b := edges[k]; b < edges[k+1]; b++ {
			bk.bucketOf[b-lo] = int32(k)
		}
	}
	clear(bk.got[:nbk])
	clear(bk.wrote[:nbk])
	bk.w = 0
	if nbk > 0 {
		bk.w = uint64(len(bk.arena.lo) / nbk)
	}
	bk.path = filepath.Join(bk.dir, fmt.Sprintf("r%03d-p%03d.bkt", st.rank, s))
	f, err := os.Create(bk.path)
	bk.f = f
	return err
}

// region returns bucket k's tuple range in the open pass's file.
func (bk *bucketSink) region(k int) (lo, hi uint64) {
	edges := bk.edges[bk.s]
	return bk.binOff[edges[k]-bk.binLo], bk.binOff[edges[k+1]-bk.binLo]
}

// bucketAt returns the bucket of tuple i of message m.
func (bk *bucketSink) bucketAt(m tupleMsg, i int) int32 {
	if m.hi != nil {
		opts := bk.st.p.idx.Opts
		return bk.bucketOf[binOf128(m.hi[i], m.lo[i], opts.K, opts.M)-bk.binLo]
	}
	return bk.bucketOf[int(m.lo[i]>>bk.shift)-bk.binLo]
}

// receive spills message m: it counts the message's tuples per bucket,
// checks that no bucket would receive more than the index predicts —
// before any tuple moves — and then scatters the message into the write
// buffers in message order, appending each buffer that fills to its
// bucket's region.
func (bk *bucketSink) receive(_ int, m tupleMsg) error {
	n := len(m.lo)
	if n == 0 {
		return nil
	}
	edges := bk.edges[bk.s]
	cnt := bk.cnt[:len(edges)-1]
	clear(cnt)
	if m.hi == nil {
		for _, key := range m.lo {
			cnt[bk.bucketOf[int(key>>bk.shift)-bk.binLo]]++
		}
	} else {
		for i := range n {
			cnt[bk.bucketAt(m, i)]++
		}
	}
	for k, c := range cnt {
		if lo, hi := bk.region(k); bk.got[k]+c > hi-lo {
			return fmt.Errorf("core: task %d: bucket %d (bins %d–%d) receives more than the %d tuples the index predicts — %w",
				bk.st.rank, k, edges[k], edges[k+1]-1, hi-lo, errStaleIndex)
		}
	}
	a, w, got, wrote := bk.arena, bk.w, bk.got, bk.wrote
	if m.hi == nil {
		bucketOf, shift, binLo := bk.bucketOf, bk.shift, bk.binLo
		for i, key := range m.lo {
			k := bucketOf[int(key>>shift)-binLo]
			j := uint64(k)*w + got[k] - wrote[k]
			a.lo[j], a.val[j] = key, m.val[i]
			if got[k]++; got[k]-wrote[k] == w {
				if err := bk.flush(int(k)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for i := range n {
		k := bk.bucketAt(m, i)
		j := uint64(k)*w + got[k] - wrote[k]
		a.hi[j], a.lo[j], a.val[j] = m.hi[i], m.lo[i], m.val[i]
		if got[k]++; got[k]-wrote[k] == w {
			if err := bk.flush(int(k)); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush appends bucket k's buffered tuples to its region of the spill
// file.
func (bk *bucketSink) flush(k int) error {
	lo, hi := bk.region(k)
	buf := uint64(k) * bk.w
	err := eachColumn(bk.arena, buf, buf+bk.got[k]-bk.wrote[k], hi-lo, bk.wrote[k], func(p []byte, off int64) error {
		_, err := bk.f.WriteAt(p, int64(lo*bk.bpt)+off)
		return err
	})
	if err != nil {
		return err
	}
	bk.wrote[k] = bk.got[k]
	return nil
}

// eachColumn calls fn once per column of t's tuples [a, b) — the key
// words, the high key words in 128-bit mode, then the values — with the
// column's bytes and their offset in a bucket region of n tuples, the
// tuples being the region's from its tuple at on.
func eachColumn(t *tupleBuf, a, b, n, at uint64, fn func(p []byte, off int64) error) error {
	if err := fn(wordBytes(t.lo[a:b]), int64(8*at)); err != nil {
		return err
	}
	vals := 8 * n
	if t.hi != nil {
		if err := fn(wordBytes(t.hi[a:b]), int64(8*n+8*at)); err != nil {
			return err
		}
		vals += 8 * n
	}
	return fn(wordBytes(t.val[a:b]), int64(vals+4*at))
}

// wordBytes views words as the bytes they occupy in memory. The spill
// file holds a bucket's columns exactly as the process holds them — it is
// written and read back by this process alone — so a column moves to and
// from disk without an encode or decode pass.
func wordBytes[W uint32 | uint64](w []W) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*int(unsafe.Sizeof(W(0))))
}

// seal is the spilling pass's share of LocalSort that runs before LocalCC:
// it flushes every partial write buffer and checks that every bucket
// received exactly its predicted count. The buckets' loads and sorts run
// inside the consumer, one bucket at a time per thread, and the consumer
// moves them to LocalSort (chargeSort). It returns one source per LocalCC
// thread over that thread's buckets.
func (bk *bucketSink) seal(s int) ([]*groupSource, error) {
	st := bk.st
	t0 := time.Now()
	err := bk.flushAll()
	d := time.Since(t0)
	st.rep.Steps.LocalSort += d
	st.stepSpan("LocalSort", t0, d)
	if err != nil {
		return nil, err
	}
	edges := bk.edges[s]
	nbk := len(edges) - 1
	total := bk.binOff[edges[nbk]-bk.binLo]
	st.rep.SpillBytes += int64(total * bk.bpt)
	st.counter("extsort/bytes_spilled").Add(total * bk.bpt)
	st.counter("extsort/buckets").Add(uint64(nbk))
	bk.last = s == st.p.cfg.Passes-1
	bk.live.Store(int32(len(bk.srcs)))
	for d, g := range bk.srcs {
		l := &bk.loaders[d]
		l.k, l.end = bk.first[s][d], bk.first[s][d+1]
		*g = groupSource{bl: l}
	}
	return bk.srcs, nil
}

// flushAll flushes every bucket's buffered tuples and checks that every
// bucket holds its predicted count: the exchange's totals match the index,
// so a bucket short of its count means another one overflowed.
func (bk *bucketSink) flushAll() error {
	for k := range len(bk.edges[bk.s]) - 1 {
		if bk.got[k] > bk.wrote[k] {
			if err := bk.flush(k); err != nil {
				return err
			}
		}
		if lo, hi := bk.region(k); bk.got[k] != hi-lo {
			return fmt.Errorf("core: task %d: bucket %d received %d of the %d tuples the index predicts — %w",
				bk.st.rank, k, bk.got[k], hi-lo, errStaleIndex)
		}
	}
	return nil
}

// memBytes charges the arena and the bin and bucket tables; kmerOut, the
// two-slot generation buffer, is charged by memoryBytes itself.
func (bk *bucketSink) memBytes() int64 {
	return bk.mem + 8*int64(len(bk.binOff)+3*len(bk.got)) + 4*int64(len(bk.bucketOf))
}

// closePass closes and removes the open pass's spill file, if any.
func (bk *bucketSink) closePass() {
	if bk.f != nil {
		bk.f.Close()
		os.Remove(bk.path)
		bk.f = nil
	}
}

// release returns the arena to the pool and drops every view into it. It
// runs once nothing can read them: after the last pass's sources have
// closed or, on every exit path, from cleanup. Idempotent.
func (bk *bucketSink) release() {
	if bk.arena == nil {
		return
	}
	bk.st.p.cfg.releaseTupleBuf(bk.arena)
	bk.arena = nil
	for d := range bk.loaders {
		bk.loaders[d].view = tupleBuf{}
		bk.sorters[d].Use(nil, nil, nil)
	}
	bk.st.spillMemAdd(-bk.mem)
}

// cleanup removes the open pass's spill file and releases the working set
// on every exit path, cancellation and failure included.
func (bk *bucketSink) cleanup() {
	bk.closePass()
	bk.release()
}

// bucketLoader loads LocalCC thread d's buckets of the open pass, in bin
// order, into the thread's bucket area.
type bucketLoader struct {
	bk *bucketSink
	d  int
	// k is the next bucket to load, end one past the thread's last.
	k, end int
	// view is the thread's bucket area; a loaded bucket is its prefix.
	view tupleBuf
	cur  tupleBuf
}

// load reads bucket k into the area, sorts it and checks its bins, then
// points g at it. It returns false when the thread has no bucket left or
// on an error, which it leaves in g.err; the time it took goes to
// g.loadTime and, with a collector, to one bucket-sort span.
func (l *bucketLoader) load(g *groupSource) bool {
	if l.k == l.end {
		return false
	}
	t0 := time.Now()
	bk, k := l.bk, l.k
	l.k++
	lo, hi := bk.region(k)
	n := hi - lo
	l.cur = l.view.view(0, n)
	err := eachColumn(&l.cur, 0, n, n, 0, func(p []byte, off int64) error {
		_, err := bk.f.ReadAt(p, int64(lo*bk.bpt)+off)
		return err
	})
	if err != nil {
		g.err = fmt.Errorf("core: task %d: reading bucket %d: %w", bk.st.rank, k, err)
		if errors.Is(err, io.EOF) {
			g.err = fmt.Errorf("core: task %d: bucket %d's spill region ends before its %d tuples — %w",
				bk.st.rank, k, n, errStaleIndex)
		}
		return false
	}
	b0, b1 := bk.edges[bk.s][k], bk.edges[bk.s][k+1]
	sig := bk.shift + uint(bits.Len(uint(b0^(b1-1))))
	if bk.wide {
		bk.sorters[l.d].Sort128(l.cur.hi, l.cur.lo, l.cur.val, sig)
	} else {
		bk.sorters[l.d].Sort64(l.cur.lo, l.cur.val, sig)
	}
	bk.st.tallySort(&bk.sorters[l.d])
	if g.err = bk.st.checkBins(&l.cur, bk.binOff, lo, bk.binLo, b0, b1); g.err != nil {
		return false
	}
	g.buf, g.pos, g.end = &l.cur, 0, n
	d := time.Since(t0)
	g.loadTime += d
	if obs := bk.st.obs; obs != nil {
		obs.RecordSpan(bk.st.rank, obsv.TidSteps, "detail", "bucket-sort", t0, d,
			map[string]any{"thread": l.d, "bucket": k, "tuples": n})
	}
	return true
}

// done records that one of the pass's sources has closed; after the last
// pass's last one, nothing reads the arena any more.
func (l *bucketLoader) done() {
	if l.bk.live.Add(-1) == 0 && l.bk.last {
		l.bk.release()
	}
}
