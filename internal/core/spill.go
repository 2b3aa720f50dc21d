package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"metaprep/internal/extsort"
	"metaprep/internal/obsv"
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
// the budget. The builders persist across a pass's KmerGen → exchange
// rounds, so the worker sorts round r's runs while round r+1 generates. Spill
// writes ride a write-behind double buffer (extsort.Writer); merge reads
// ride a per-segment read-ahead ring (extsort.SegReader) — the same
// overlap idiom as the KmerGen chunk prefetcher.

// spillScratch creates the run-scoped temp directory every rank's run
// files live in, or returns "" when the plan does not spill (os.RemoveAll
// of "" is a no-op, so callers defer the removal unconditionally).
func (p *plan) spillScratch() (string, error) {
	if !p.spill {
		return "", nil
	}
	return os.MkdirTemp(p.cfg.SpillDir, "metaprep-spill-")
}

// runSink serves a task's passes in order: open starts pass s's spill —
// run file, builders, worker — before the pass's KmerGen, and releases the
// previous pass's, whose run file LocalCC's merge sources read until then.
type runSink struct {
	st  *taskState
	dir string
	sp  *spillState
}

func (r *runSink) open(s int) error {
	r.cleanup()
	sp, err := r.st.startSpill(s, r.dir)
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
func (r *runSink) seal(int) ([]*groupSource, error) {
	sp, st := r.sp, r.st
	t0 := time.Now()
	err := sp.finish()
	sp.releaseBufs()
	d := time.Since(t0)
	st.rep.Steps.LocalSort += d
	st.stepSpan("LocalSort", t0, d)
	if err != nil {
		return nil, err
	}
	st.rep.SpillBytes += sp.w.BytesWritten()
	st.counter("extsort/bytes_spilled").Add(uint64(sp.w.BytesWritten()))
	st.counter("extsort/runs").Add(uint64(len(sp.infos)))
	sp.srcs = make([]*groupSource, len(sp.thrCuts)-1)
	for d := range sp.srcs {
		sp.srcs[d] = &groupSource{sp: sp, d: d}
	}
	return sp.srcs, nil
}

// memBytes charges the three budget/4 run builders; kmerOut, the two-slot
// generation buffer, is charged by memoryBytes itself.
func (r *runSink) memBytes() int64 {
	return 3 * int64(r.st.p.runTuples*r.st.p.bytesPerTuple())
}

// cleanup releases the open pass's spill, if any: merge sources,
// builders and the run file.
func (r *runSink) cleanup() {
	if r.sp != nil {
		r.sp.cleanup()
		r.sp = nil
	}
}

// spillJob is one filled run builder on its way to the spill worker.
type spillJob struct {
	buf *tupleBuf
	n   uint64
}

// spillState drives one (rank, pass)'s spill: the run file, the builder
// ring, the sort/write worker and the run directory for the merge phase.
type spillState struct {
	st *taskState
	s  int

	f    *os.File
	path string
	w    *extsort.Writer

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
	bufs    []*tupleBuf

	// infos accumulates one RunInfo per spilled run (worker-written, read
	// after done closes).
	infos []extsort.RunInfo
	err   error
	// srcs are the merge sources seal handed to LocalCC.
	srcs []*groupSource

	finished bool
}

// startSpill opens this (rank, pass)'s run file, acquires the builder ring
// and launches the spill worker. dir is the run-scoped temp directory the
// pipeline created (and removes on every exit path).
func (st *taskState) startSpill(s int, dir string) (*spillState, error) {
	pl := st.p
	cfg := pl.cfg
	runs := pl.spillRuns(pl.passRecv(s, st.rank))
	sp := &spillState{
		st: st, s: s,
		wide:        !pl.use64(),
		runTuples:   pl.runTuples,
		blockTuples: pl.spillBlockTuples(runs),
		thrCuts:     pl.pt.ThreadCuts(s, st.rank),
		free:        make(chan *tupleBuf, 2),
		full:        make(chan spillJob, 2),
		done:        make(chan struct{}),
	}
	lo, hi := pl.pt.TaskRange(s, st.rank)
	sp.kr = keyRange{binLo: lo, binHi: hi, shift: 2 * uint(pl.idx.Opts.K-pl.idx.Opts.M)}

	sp.path = filepath.Join(dir, fmt.Sprintf("r%03d-p%03d.run", st.rank, s))
	f, err := os.Create(sp.path)
	if err != nil {
		return nil, err
	}
	sp.f = f
	w, err := extsort.NewWriter(f, sp.wide, false, sp.blockTuples)
	if err != nil {
		f.Close()
		os.Remove(sp.path)
		return nil, err
	}
	sp.w = w

	for i := 0; i < 3; i++ {
		sp.bufs = append(sp.bufs, cfg.acquireTupleBuf(sp.runTuples, sp.wide))
	}
	sp.fill, sp.scratch = sp.bufs[0], sp.bufs[2]
	sp.free <- sp.bufs[1]
	st.spillMemAdd(3 * int64(sp.runTuples) * int64(pl.bytesPerTuple()))

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
	if err := sp.w.Close(); sp.err == nil {
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
	job.buf.sortRange(0, n, sp.kr, sp.scratch)

	T := len(sp.thrCuts) - 1
	cuts := make([]uint64, T+1)
	cuts[T] = n
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
	info, err := sp.w.WriteRun(job.buf.lo[:n], hi, job.buf.val[:n], cuts)
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

// releaseBufs returns the builder ring to the pool before the merge phase
// starts, so the sort-phase and merge-phase working sets never coexist and
// peak tuple memory stays within the budget. It runs after finish, so the
// worker has exited and the free ring holds the builders' last references.
// Idempotent.
func (sp *spillState) releaseBufs() {
	if sp.bufs == nil {
		return
	}
	for _, b := range sp.bufs {
		sp.st.p.cfg.releaseTupleBuf(b)
	}
	sp.bufs, sp.fill, sp.scratch, sp.free = nil, nil, nil, nil
	sp.st.spillMemAdd(-3 * int64(sp.runTuples) * int64(sp.st.p.bytesPerTuple()))
}

// merger opens segment d of every run and primes a loser-tree merge over
// them, charging its decoded read-ahead blocks to the spill memory gauge
// (groupSource.close releases them).
func (sp *spillState) merger(d int) (*extsort.Merger, error) {
	rs := make([]*extsort.SegReader, len(sp.infos))
	for i, info := range sp.infos {
		rs[i] = extsort.NewSegReader(sp.f, info.Segs[d], sp.wide, false, sp.blockTuples)
	}
	sp.st.spillMemAdd(sp.mergeBlockBytes())
	mg, err := extsort.NewMerger(rs)
	if err != nil {
		for _, r := range rs {
			r.Close()
		}
		sp.st.spillMemAdd(-sp.mergeBlockBytes())
		return nil, err
	}
	return mg, nil
}

// mergeBlockBytes is one merge source's decoded read-ahead: up to two
// blocks per run.
func (sp *spillState) mergeBlockBytes() int64 {
	return int64(len(sp.infos)) * 2 * int64(sp.blockTuples) * int64(sp.st.p.bytesPerTuple())
}

// cleanup releases every spill resource: closes the merge sources, joins
// the worker if an error path skipped finish, returns the builders, and
// closes and removes the run file. Runs when the next pass opens and on
// every exit path, so no run file outlives its task — cancellation and
// failure included.
func (sp *spillState) cleanup() {
	closeSources(sp.srcs)
	sp.finish()
	sp.releaseBufs()
	sp.f.Close()
	os.Remove(sp.path)
}
