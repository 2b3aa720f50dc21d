package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"metaprep/internal/extsort"
	"metaprep/internal/obsv"
	"metaprep/internal/par"
	"metaprep/internal/unionfind"
)

// spill.go implements the out-of-core LocalSort path (Config.
// SpillBudgetBytes): when a pass's received partition would exceed the
// budget, the exchange lands tuples into fixed-size run builders instead of
// a partition-sized kmerIn. Each full builder is handed to a spill worker
// that radix-sorts it in RAM (the §3.4 kernels, with the task's bin range
// pinning the high bits) and appends it to a per-(rank, pass) temp file as
// one sorted run, cut into T per-thread-bin segments. Runs are written raw:
// the extsort codec's varint/delta key compression measured slower and
// larger in RSS on local disk (EXPERIMENTS.md), so spill never uses it;
// the .mpa artifact's k-mer section still does. LocalCC then replaces
// the sorted-partition walk with T concurrent loser-tree merges — thread d
// merging segment d of every run — feeding the shared union–find as a
// stream. Results are bit-identical to the in-RAM path (TestSpillParity):
// union-by-index makes component roots independent of edge order, and the
// frequency spectrum and filter see exactly the same runs of equal keys.
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
	k, m    int
	shift   uint

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
		k:           pl.idx.Opts.K,
		m:           pl.idx.Opts.M,
		shift:       2 * uint(pl.idx.Opts.K-pl.idx.Opts.M),
		free:        make(chan *tupleBuf, 2),
		full:        make(chan spillJob, 2),
		done:        make(chan struct{}),
	}
	lo, hi := pl.pt.TaskRange(s, st.rank)
	sp.kr = keyRange{binLo: lo, binHi: hi, shift: sp.shift}

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
// rotating full builders to the spill worker. It replaces
// tupleBuf.receive on the spill path and is only ever called from the
// rank's own all-to-all receive callback.
func (sp *spillState) receive(m tupleMsg) uint64 {
	cnt := uint64(len(m.lo))
	var pos uint64
	for pos < cnt {
		n := sp.runTuples - sp.fillLen
		if rem := cnt - pos; rem < n {
			n = rem
		}
		b, at := sp.fill, sp.fillLen
		copy(b.lo[at:at+n], m.lo[pos:pos+n])
		copy(b.val[at:at+n], m.val[pos:pos+n])
		if b.hi != nil {
			copy(b.hi[at:at+n], m.hi[pos:pos+n])
		}
		sp.fillLen += n
		pos += n
		if sp.fillLen == sp.runTuples {
			sp.rotate()
		}
	}
	return cnt
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
	binOf := func(i int) int {
		if sp.wide {
			return binOf128(job.buf.hi[i], job.buf.lo[i], sp.k, sp.m)
		}
		return int(job.buf.lo[i] >> sp.shift)
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
// peak tuple memory stays within the budget. Idempotent.
func (sp *spillState) releaseBufs() {
	if sp.bufs == nil {
		return
	}
	for _, b := range sp.bufs {
		sp.st.p.cfg.releaseTupleBuf(b)
	}
	sp.bufs, sp.fill, sp.scratch = nil, nil, nil
	sp.st.spillMemAdd(-3 * int64(sp.runTuples) * int64(sp.st.p.bytesPerTuple()))
}

// cleanup releases every spill resource: joins the worker if an error path
// skipped finish, returns the builders, and closes and removes the run
// file. Deferred on every pass exit path, so no run files outlive their
// pass — cancellation and failure included.
func (sp *spillState) cleanup() {
	sp.finish()
	sp.releaseBufs()
	sp.f.Close()
	os.Remove(sp.path)
}

// runSpillPass is the out-of-core body of one pipeline pass: the KmerGen →
// exchange rounds land in the run builders (the spill worker sorting and
// writing round r's runs while round r+1 generates), then the spill drains
// and the k-way merge streams into LocalCC.
func (st *taskState) runSpillPass(s int, dir string) error {
	sp, err := st.startSpill(s, dir)
	if err != nil {
		return err
	}
	defer sp.cleanup()
	st.spill = sp
	_, err = st.genExchange(s)
	st.spill = nil
	if err != nil {
		return err
	}
	if err := st.localSortSpill(sp); err != nil {
		return err
	}
	return st.localCCSpill(sp)
}

// localSortSpill is the spill path's LocalSort step: most of the sorting
// already ran on the spill worker, hidden behind the exchange; what remains
// — and what the step is charged — is the drain of the last run(s) and the
// write-behind flush.
func (st *taskState) localSortSpill(sp *spillState) error {
	t0 := time.Now()
	err := sp.finish()
	sp.releaseBufs()
	d := time.Since(t0)
	st.rep.Steps.LocalSort += d
	st.stepSpan("LocalSort", t0, d)
	if err != nil {
		return err
	}
	st.rep.SpillBytes += sp.w.BytesWritten()
	st.counter("extsort/bytes_spilled").Add(uint64(sp.w.BytesWritten()))
	st.counter("extsort/runs").Add(uint64(len(sp.infos)))
	return nil
}

// localCCSpill is the spill path's LocalCC: T concurrent loser-tree merges
// (thread d over segment d of every run) stream globally sorted tuples, so
// runs of equal keys are consumed exactly as the in-RAM forRuns walk would
// — frequency spectrum, filter and star edges included. When no frequency
// filter is active, edges feed union–find tuple by tuple without buffering
// a run; with a filter the current run's read IDs are buffered (runs are
// k-mer frequencies — tiny) until its length is known.
func (st *taskState) localCCSpill(sp *spillState) error {
	T := st.p.cfg.Threads
	filter := st.p.cfg.Filter
	// With no upper bound and a lower bound of ≤ 2, every run of length ≥ 2
	// passes the filter, so edges can stream ahead of the run's end.
	streaming := filter.Max == 0 && filter.Min <= 2

	t0 := time.Now()
	edgeCounts := make([]uint64, T)
	retries := make([][]unionfind.Edge, T)
	hists := make([][]uint64, T)
	errs := make([]error, T)
	runs := len(sp.infos)
	blockBytes := int64(runs) * 2 * int64(sp.blockTuples) * int64(st.p.bytesPerTuple())

	par.Run(T, func(d int) {
		hist := make([]uint64, freqHistSize)
		hists[d] = hist
		st.spillMemAdd(blockBytes)
		defer st.spillMemAdd(-blockBytes)

		rs := make([]*extsort.SegReader, runs)
		for i, info := range sp.infos {
			rs[i] = extsort.NewSegReader(sp.f, info.Segs[d], sp.wide, false, sp.blockTuples)
		}
		mg, err := extsort.NewMerger(rs)
		if err != nil {
			for _, r := range rs {
				r.Close()
			}
			errs[d] = err
			return
		}
		defer mg.Close()

		// With an artifact emit active, this thread tees every tuple it
		// streams out of the merge into its per-(pass,rank,thread) part
		// file — the spill-mode leg of the no-second-pass emit.
		var tee *partTee
		if st.emit != nil {
			tee, err = st.emit.newPartTee(sp.s, st.rank, d)
			if err != nil {
				errs[d] = err
				return
			}
			defer tee.discard()
		}

		m0 := time.Now()
		var retry []unionfind.Edge
		var streamed uint64
		var curHi, curLo uint64
		var f uint32
		var v0 uint32
		var vals []uint32 // buffered run reads (filtered mode only)
		endRun := func() {
			if f == 0 {
				return
			}
			if f < freqHistSize {
				hist[f]++
			} else {
				hist[freqHistSize-1]++
			}
			if !streaming && f >= 2 && filter.Keep(f) {
				for _, vi := range vals[1:] {
					edgeCounts[d]++
					if st.dsu.Connect(v0, vi) {
						retry = append(retry, unionfind.Edge{U: v0, V: vi})
					}
				}
			}
		}
		for {
			hi, lo, val, ok, err := mg.Next()
			if err != nil {
				errs[d] = err
				return
			}
			if !ok {
				break
			}
			if tee != nil {
				tee.add(hi, lo, val)
			}
			streamed++
			if streamed&8191 == 0 {
				if err := st.ctx.Err(); err != nil {
					errs[d] = err
					return
				}
			}
			if f > 0 && hi == curHi && lo == curLo {
				f++
				if streaming {
					// Same k-mer as the last tuple: one more star edge,
					// straight into the DSU.
					edgeCounts[d]++
					if st.dsu.Connect(v0, val) {
						retry = append(retry, unionfind.Edge{U: v0, V: val})
					}
				} else {
					vals = append(vals, val)
				}
				continue
			}
			endRun()
			curHi, curLo, v0, f = hi, lo, val, 1
			if !streaming {
				vals = append(vals[:0], val)
			}
		}
		endRun()
		if tee != nil {
			if err := tee.close(); err != nil {
				errs[d] = err
				return
			}
		}
		retries[d] = retry
		if st.obs != nil {
			st.obs.RecordSpan(st.rank, obsv.TidWorker+d, "detail", "spill-merge", m0, time.Since(m0),
				map[string]any{"runs": runs, "tuples": streamed})
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	st.ccFinish(t0, edgeCounts, retries, hists)
	return nil
}
