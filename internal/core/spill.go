package core

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"metaprep/internal/container"
	"metaprep/internal/extsort"
	"metaprep/internal/obsv"
	"metaprep/internal/radix"
)

// spill.go implements runSink, the tupleSink of a spilling plan (Config.
// SpillBudgetBytes): when a pass's received partition would exceed the
// budget, the exchange lands tuples into fixed-size run builders instead of
// a receive buffer. Each full builder is handed to a spill worker
// that radix-sorts it in RAM (the §3.4 kernels, with the task's bin range
// pinning the high bits) and appends it to a per-(rank, pass) temp file as
// one sorted run, cut into T per-thread-bin segments. Runs are written raw:
// the extsort codec's varint/delta key compression measured slower and
// larger in RSS on local disk (EXPERIMENTS.md), so spill never uses it;
// the .mpa artifact's k-mer section still does. seal drains the worker and
// hands LocalCC thread d a groupSource merging segment d of every run with
// a loser tree. From there the pass is the in-RAM pass: the same localCC
// consumer sees the same equal-key groups, so labels, edges, the frequency
// spectrum and the artifact tee match the bin sink's
// (TestSpillParity, TestArtifactShapeContract).
//
// Memory: the budget is four buffers of budget/4 — the generation buffer
// (kmerOut: two budget/8 slots that alternating rounds fill, see
// plan.groupChunks) and three circulating run builders during the
// receive/sort/write phase (two in the handoff ring plus the radix scratch)
// — and, during the merge, the generation buffer plus up to two decoded
// blocks per (thread, run) sized by plan.spillBlockTuples to fit in half
// the budget. The merge blocks are views carved from the builders, which
// sit idle while a pass merges, so the merge adds no memory. A task
// acquires this working set once — builders, the run writer's encode
// buffers, the worker's sort tables, the merge readers — and every pass
// reuses it; a pass allocates nothing proportional to its tuples. The
// builders persist across a pass's KmerGen → exchange rounds, so the
// worker sorts round r's runs while round r+1 generates. Spill writes ride
// a write-behind double buffer (extsort.Writer); merge reads ride a
// per-segment read-ahead ring (extsort.SegReader) — the same overlap idiom
// as the KmerGen chunk prefetcher.

// runScratchPrefix names a run's one scratch directory.
const runScratchPrefix = "metaprep-run-"

// runScratch creates the run's one scratch directory under cfg.SpillDir
// (the OS temp dir when empty): every spill run file, artifact part and
// delta artifact of the run lives in it. It returns "" when the run has
// nothing to hold (os.RemoveAll of "" is a no-op, so callers defer the
// removal unconditionally and the directory goes on every exit path).
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

// runSink is a spilling task's working set, acquired once and reused by
// every pass. open starts pass s's spill — run file and worker — before
// the pass's KmerGen, and closes the previous pass's, whose run file
// LocalCC's merge sources read until then.
type runSink struct {
	st   *taskState
	dir  string
	wide bool

	// bufs are the three run builders: the receive/sort ring while a pass
	// spills, the backing of its merge blocks while it merges. Acquired at
	// the first open, released when the last pass's merge sources close,
	// so they are not held through MergeCC and CC-I/O.
	bufs []*tupleBuf
	// w writes every pass's run file, re-pointed by Reset; sorter and cuts
	// belong to the spill worker (one pass's worker exits before the
	// next's starts).
	w      *extsort.Writer
	sorter radix.RangeSorter
	cuts   []uint64
	// Thread d's merge state: readers[d][i] reads run i's segment d into
	// blocks[d][2i] and blocks[d][2i+1], and srcs[d] is its group source.
	// Only thread d touches row d.
	readers [][]*extsort.SegReader
	blocks  [][]extsort.Block
	srcs    []*groupSource

	sp *spillState // the open pass
}

func newRunSink(st *taskState, dir string) *runSink {
	T := st.p.cfg.Threads
	r := &runSink{
		st: st, dir: dir, wide: !st.p.use64(),
		cuts:    make([]uint64, T+1),
		readers: make([][]*extsort.SegReader, T),
		blocks:  make([][]extsort.Block, T),
		srcs:    make([]*groupSource, T),
	}
	for d := range r.srcs {
		r.srcs[d] = &groupSource{}
	}
	return r
}

func (r *runSink) open(s int) error {
	r.closePass()
	if r.bufs == nil {
		pl := r.st.p
		for i := 0; i < 3; i++ {
			r.bufs = append(r.bufs, pl.cfg.acquireTupleBuf(pl.runTuples, r.wide))
		}
		r.st.spillMemAdd(r.memBytes())
	}
	sp, err := r.startSpill(s)
	r.sp = sp
	return err
}

func (r *runSink) receive(_ int, m tupleMsg) error {
	r.sp.receive(m)
	return nil
}

// seal is the spill path's LocalSort step: most of the sorting already ran
// on the spill worker, hidden behind the exchange; what remains — and what
// the step is charged — is the drain of the last run(s) and the
// write-behind flush. It returns one merge source per LocalCC thread.
func (r *runSink) seal(s int) ([]*groupSource, error) {
	sp, st := r.sp, r.st
	t0 := time.Now()
	err := sp.finish()
	d := time.Since(t0)
	st.rep.Steps.LocalSort += d
	st.stepSpan("LocalSort", t0, d)
	if err != nil {
		return nil, err
	}
	st.rep.SpillBytes += r.w.BytesWritten()
	st.counter("extsort/bytes_spilled").Add(uint64(r.w.BytesWritten()))
	st.counter("extsort/runs").Add(uint64(len(sp.infos)))
	sp.last = s == st.p.cfg.Passes-1
	sp.open.Store(int32(len(r.srcs)))
	for d, g := range r.srcs {
		*g = groupSource{sp: sp, d: d, vals: g.vals[:0]}
	}
	return r.srcs, nil
}

// memBytes charges the three budget/4 run builders; kmerOut, the two-slot
// generation buffer, is charged by memoryBytes itself. The merge blocks
// live inside the builders.
func (r *runSink) memBytes() int64 {
	return 3 * int64(r.st.p.runTuples*r.st.p.bytesPerTuple())
}

// closePass closes the open pass's spill, if any: its merge sources, its
// worker and its run file.
func (r *runSink) closePass() {
	if sp := r.sp; sp != nil {
		closeSources(r.srcs)
		sp.finish()
		sp.f.Close()
		os.Remove(sp.path)
		r.sp = nil
	}
}

// releaseBufs returns the builders to the pool. It runs once nothing can
// read them: after the last pass's merge sources have closed (each joins
// its readers' decode goroutines) or, on every exit path, from cleanup.
// Idempotent.
func (r *runSink) releaseBufs() {
	if r.bufs == nil {
		return
	}
	for _, b := range r.bufs {
		r.st.p.cfg.releaseTupleBuf(b)
	}
	r.bufs = nil
	r.st.spillMemAdd(-r.memBytes())
}

// cleanup releases every spill resource on every exit path — the open
// pass's sources, worker and run file, then the builders — so no run file
// outlives its task, cancellation and failure included.
func (r *runSink) cleanup() {
	r.closePass()
	r.releaseBufs()
}

// spillJob is one filled run builder on its way to the spill worker.
type spillJob struct {
	buf *tupleBuf
	n   uint64
}

// spillState drives one (rank, pass)'s spill: the run file, the builder
// ring, the sort/write worker and the run directory for the merge phase.
type spillState struct {
	st   *taskState
	sink *runSink
	s    int

	f    *os.File
	path string

	wide        bool
	runTuples   uint64
	blockTuples int

	// kr pins the sort's key range to the task's bin range; thrCuts are the
	// bin boundaries where runs are cut into per-thread segments.
	kr      keyRange
	thrCuts []int

	// fill is the builder the receive path is appending to; two more
	// circulate through free (ready) and full (awaiting sort+write), and
	// scratch is the worker-owned radix ping-pong buffer.
	fill    *tupleBuf
	fillLen uint64
	free    chan *tupleBuf
	full    chan spillJob
	done    chan struct{}
	scratch *tupleBuf

	// infos accumulates one RunInfo per spilled run (worker-written, read
	// after done closes).
	infos []extsort.RunInfo
	err   error

	// open counts the merge sources not yet closed; when the last pass's
	// last one closes, the builders go back (groupSource.close).
	open atomic.Int32
	last bool

	finished bool
}

// startSpill opens this (rank, pass)'s run file, re-points the task's
// writer at it and launches the spill worker over the builder ring. The
// run file lives in the run-scoped temp directory the pipeline created
// (and removes on every exit path).
func (r *runSink) startSpill(s int) (*spillState, error) {
	st := r.st
	pl := st.p
	runs := pl.spillRuns(pl.passRecv(s, st.rank))
	sp := &spillState{
		st: st, sink: r, s: s,
		wide:        r.wide,
		runTuples:   pl.runTuples,
		blockTuples: pl.spillBlockTuples(runs),
		thrCuts:     pl.pt.ThreadCuts(s, st.rank),
		free:        make(chan *tupleBuf, 2),
		full:        make(chan spillJob, 2),
		done:        make(chan struct{}),
	}
	lo, hi := pl.pt.TaskRange(s, st.rank)
	sp.kr = keyRange{binLo: lo, binHi: hi, shift: 2 * uint(pl.idx.Opts.K-pl.idx.Opts.M)}

	sp.path = filepath.Join(r.dir, fmt.Sprintf("r%03d-p%03d.run", st.rank, s))
	f, err := os.Create(sp.path)
	if err != nil {
		return nil, err
	}
	sp.f = f
	if r.w == nil {
		r.w, err = extsort.NewWriter(f, sp.wide, false, sp.blockTuples)
	} else {
		err = r.w.Reset(f, sp.blockTuples)
	}
	if err != nil {
		f.Close()
		os.Remove(sp.path)
		return nil, err
	}

	sp.fill, sp.scratch = r.bufs[0], r.bufs[2]
	sp.free <- r.bufs[1]
	go sp.worker()
	return sp, nil
}

// receive appends a received exchange message to the current run builder,
// rotating full builders to the spill worker. It is only ever called from
// the rank's own all-to-all receive callback.
func (sp *spillState) receive(m tupleMsg) {
	cnt := uint64(len(m.lo))
	for pos := uint64(0); pos < cnt; {
		n := min(sp.runTuples-sp.fillLen, cnt-pos)
		sp.fillLen += sp.fill.receive(sp.fillLen, m.slice(pos, pos+n))
		pos += n
		if sp.fillLen == sp.runTuples {
			sp.rotate()
		}
	}
}

// rotate hands the filled builder to the worker and takes a recycled one.
// Blocking on free is the backpressure that bounds receive memory: at most
// two builders are ever filled-but-unsorted.
func (sp *spillState) rotate() {
	sp.full <- spillJob{buf: sp.fill, n: sp.fillLen}
	sp.fill = <-sp.free
	sp.fillLen = 0
}

// worker sorts and writes each filled builder as one run. It never stops
// consuming: after an error it keeps draining (skipping the work) and
// returning builders so the receive path can never deadlock on a dead
// worker; the error surfaces at finish. Closing the writer here — after the
// channel drains — makes worker exit the single point where the file is
// known complete.
func (sp *spillState) worker() {
	defer close(sp.done)
	for job := range sp.full {
		if sp.err == nil {
			if err := sp.sortWrite(job); err != nil {
				sp.err = err
			}
		}
		sp.free <- job.buf
	}
	if err := sp.sink.w.Close(); sp.err == nil {
		sp.err = err
	}
}

// sortWrite radix-sorts one builder in RAM and appends it as a sorted run,
// cut at the pass's thread-bin boundaries so the merge phase can hand each
// LocalCC thread an independently readable byte range. Equal keys never
// straddle a segment boundary: segments are bin ranges, and a key lives in
// exactly one bin.
func (sp *spillState) sortWrite(job spillJob) error {
	st := sp.st
	t0 := time.Now()
	n := job.n
	job.buf.sortRange(0, n, sp.kr, sp.scratch, &sp.sink.sorter)

	T := len(sp.thrCuts) - 1
	cuts := sp.sink.cuts[:T+1]
	cuts[0], cuts[T] = 0, n
	opts := st.p.idx.Opts
	binOf := func(i int) int {
		if sp.wide {
			return binOf128(job.buf.hi[i], job.buf.lo[i], opts.K, opts.M)
		}
		return int(job.buf.lo[i] >> sp.kr.shift)
	}
	for d := 1; d < T; d++ {
		bound := sp.thrCuts[d]
		cuts[d] = uint64(sort.Search(int(n), func(i int) bool { return binOf(i) >= bound }))
	}

	var hi []uint64
	if sp.wide {
		hi = job.buf.hi[:n]
	}
	info, err := sp.sink.w.WriteRun(job.buf.lo[:n], hi, job.buf.val[:n], cuts)
	if err != nil {
		return err
	}
	sp.infos = append(sp.infos, info)
	if st.obs != nil {
		st.obs.RecordSpan(st.rank, obsv.TidSpill, "detail", "spill-run", t0, time.Since(t0),
			map[string]any{"run": len(sp.infos) - 1, "tuples": n})
	}
	return nil
}

// finish flushes the final partial run, joins the worker and reports the
// first spill error. Idempotent.
func (sp *spillState) finish() error {
	if !sp.finished {
		sp.finished = true
		if sp.fillLen > 0 {
			sp.rotate()
		}
		close(sp.full)
		<-sp.done
	}
	return sp.err
}

// merger points thread d's readers at segment d of every run, their
// read-ahead blocks carved from the idle builders, and primes a loser-tree
// merge over them. over is the read-ahead that did not fit in the builders
// (see carve), charged to the spill memory gauge until the source closes.
func (sp *spillState) merger(d int) (mg *extsort.Merger, over int64, err error) {
	r := sp.sink
	runs := len(sp.infos)
	for len(r.readers[d]) < runs {
		r.readers[d] = append(r.readers[d], new(extsort.SegReader))
	}
	if len(r.blocks[d]) < 2*runs {
		r.blocks[d] = make([]extsort.Block, 2*runs)
	}
	rs, blocks := r.readers[d][:runs], r.blocks[d]
	for i, info := range sp.infos {
		b0, b1 := &blocks[2*i], &blocks[2*i+1]
		over += sp.carve(b0, d, i, 0) + sp.carve(b1, d, i, 1)
		rs[i].Reset(sp.f, info.Segs[d], sp.wide, false, sp.blockTuples, b0, b1)
	}
	if mg, err = extsort.NewMerger(rs); err != nil {
		for _, rd := range rs {
			rd.Close()
		}
		return nil, 0, err
	}
	sp.st.spillMemAdd(over)
	return mg, over, nil
}

// carve points merge block (thread d, run i, slot j) at its fixed place in
// the builders: slot q = (d·runs + i)·2 + j is the q-th block-sized piece,
// counting builder by builder. The plan keeps T·runs·2 blocks within half
// the budget and the builders hold three quarters of it, so every block
// fits — unless spillBlockTuples' 16-tuple floor outgrew that share. A
// block past the builders' end decodes into memory of its own, whose bytes
// carve returns.
func (sp *spillState) carve(b *extsort.Block, d, i, j int) int64 {
	q := (d*len(sp.infos)+i)*2 + j
	per := int(sp.runTuples) / sp.blockTuples
	if q >= len(sp.sink.bufs)*per {
		*b = extsort.Block{}
		return int64(sp.blockTuples) * int64(sp.st.p.bytesPerTuple())
	}
	buf := sp.sink.bufs[q/per]
	lo := (q % per) * sp.blockTuples
	hi := lo + sp.blockTuples
	b.Lo, b.Val, b.Hi = buf.lo[lo:hi:hi], buf.val[lo:hi:hi], nil
	if sp.wide {
		b.Hi = buf.hi[lo:hi:hi]
	}
	return 0
}
