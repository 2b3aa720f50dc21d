package core

import (
	"fmt"
	"slices"
	"time"

	"metaprep/internal/extsort"
	"metaprep/internal/obsv"
	"metaprep/internal/par"
	"metaprep/internal/unionfind"
)

// steps.go implements the middle of one pipeline pass, identical for every
// memory shape: KmerGen → exchange rounds land tuples in a tupleSink
// (§3.3), the sink's seal runs LocalSort (§3.4) and hands each LocalCC
// thread a key-ordered groupSource, and localCC turns the equal-key groups
// into union–find edges (§3.5). Config.SpillBudgetBytes decides only which
// sink holds the tuples: partitionSink keeps them in kmerIn and sorts them
// in RAM, runSink (spill.go) sorts budget-sized runs to disk and merges
// them back.

// tupleSink is where one task's exchanged tuples live between the exchange
// and LocalCC. One sink serves every pass of a task, in pass order.
type tupleSink interface {
	// open readies the sink for pass s's tuples, before its KmerGen, and
	// releases what the previous pass's sources needed.
	open(s int) error
	// receive lands one message of the current round and returns its
	// tuple count; off is where the round's receive layout places it.
	receive(off uint64, m tupleMsg) uint64
	// seal runs and charges pass s's LocalSort step. rl is the last
	// round's receive layout. It returns T sorted sources, source d
	// holding exactly thread d's bin range; the caller drains and closes
	// every one before the next pass's exchange.
	seal(s int, rl recvLayout) ([]*groupSource, error)
	// memBytes is the sink's planned tuple memory, for the §3.7 inventory.
	memBytes() int64
	// cleanup releases the sink's buffers and scratch files on every exit
	// path.
	cleanup()
}

// openPasses readies a task for its passes: the input files, kmerOut and
// the sink the plan calls for. spillDir is the run-scoped scratch directory
// a spilling plan's runs go to; that plan's memory gauge starts with
// kmerOut, since the budget covers the generation slots too. closePasses
// undoes it on every exit path.
func (st *taskState) openPasses(spillDir string) (tupleSink, error) {
	files, err := openInputs(st.p.idx)
	if err != nil {
		return nil, err
	}
	st.files = files
	st.out = st.p.cfg.acquireTupleBuf(st.p.bufTuples[st.rank], !st.p.use64())
	if st.p.spill {
		st.spillMemAdd(st.out.memBytes())
		return &runSink{st: st, dir: spillDir}, nil
	}
	return &partitionSink{st: st, in: st.p.cfg.acquireTupleBuf(st.p.bufTuples[st.rank], !st.p.use64())}, nil
}

// closePasses releases what openPasses acquired. Recycling the buffers is
// safe even on the error path: a world joins every rank before its run
// returns, so no peer still holds a zero-copy view into them when a later
// run (the next daemon job) can acquire them.
func (st *taskState) closePasses(sink tupleSink) {
	if sink != nil {
		sink.cleanup()
	}
	st.p.cfg.releaseTupleBuf(st.out)
	st.closeFiles()
}

// runPasses is the pass body every batch mode shares: for each pass, open
// the sink, KmerGen → exchange into it, the sink's LocalSort, then consume
// over the T sorted sources (LocalCC, or the counter's compaction).
func (st *taskState) runPasses(sink tupleSink, consume func(s int, srcs []*groupSource) error) error {
	for s := 0; s < st.p.cfg.Passes; s++ {
		if err := sink.open(s); err != nil {
			return err
		}
		rl, err := st.genExchange(s, sink)
		if err != nil {
			return err
		}
		srcs, err := sink.seal(s, rl)
		if err != nil {
			return err
		}
		if err := consume(s, srcs); err != nil {
			return err
		}
		if err := st.ctx.Err(); err != nil {
			return err
		}
		// Keep passes in lockstep so a fast task cannot start enumerating
		// pass s+1 component IDs while peers still union pass s edges
		// (§3.5.1 requires the local DSU to be quiescent at enumeration).
		st.t.Barrier()
	}
	return nil
}

// genExchange runs pass s's KmerGen → exchange rounds into sink. Each round
// fills kmerOut from one group of this task's chunks and ships it in one
// §3.3 all-to-all; a spilling pass has as many rounds as its budget needs,
// an in-RAM pass exactly one. Exact rounds ship the index-predicted region
// counts; prefiltered rounds first compact the part-filled regions and ship
// what the gate kept. Each thread's chunk fetcher lives for the whole pass,
// so reads keep prefetching across round boundaries. Returns the last
// round's receive layout: the whole pass's when the pass is in RAM.
func (st *taskState) genExchange(s int, sink tupleSink) (recvLayout, error) {
	pl, T := st.p, st.p.cfg.Threads
	fetchers := make([]*chunkFetcher, T)
	for t := range fetchers {
		fetchers[t] = newChunkFetcher(pl.passChunks(s, st.rank, t), pl.idx, st.files,
			pl.cfg.prefetchDepth(), st.obs, st.rank, obsv.TidPrefetch+t)
	}
	defer func() {
		for _, f := range fetchers {
			f.close()
		}
	}()
	owner := pl.binOwners(s)
	var rl recvLayout
	for r := 0; r < pl.rounds[s]; r++ {
		gl := pl.genLayout(s, st.rank, r)
		if err := st.kmerGen(s, r, gl, owner, fetchers); err != nil {
			return rl, err
		}
		sendCnt := gl.dstCnt
		if st.keep != nil {
			sendCnt = st.compactGen(gl)
		}
		rl = pl.recvLayout(s, st.rank, r)
		if err := st.exchange(s, sink, gl, rl, sendCnt, r+1 == pl.rounds[s]); err != nil {
			return rl, err
		}
	}
	st.counter("kmergen/rounds").Add(uint64(pl.rounds[s]))
	return rl, nil
}

// exchange runs the custom all-to-all of §3.3: P stages of point-to-point
// messages, stage i pairing rank→rank+i, each shipping sendCnt[dst] tuples
// from dst's region of kmerOut. Each received message lands in sink. Counts
// are validated against the index's prediction: exactly, or — under the
// prefilter, which can only shrink them — as an upper bound, with the
// actual counts recorded in recvGot for sortLayoutFiltered. last marks the
// pass's final round, the only one that ends in a barrier.
func (st *taskState) exchange(s int, sink tupleSink, gl genLayout, rl recvLayout, sendCnt []uint64, last bool) error {
	t0 := time.Now()
	filtered := st.keep != nil
	var mismatch error
	st.t.AllToAll(tagTuples+s,
		func(dst int) (any, int) {
			cnt := sendCnt[dst]
			return st.out.msgFor(gl.dstOff[dst], cnt), int(cnt) * st.out.bytesPerTuple()
		},
		func(src int, payload any) {
			got := sink.receive(rl.srcOff[src], payload.(tupleMsg))
			if st.exchTupleCounters != nil {
				// Per-rank-pair volume: the Fig. 8 communication
				// imbalance quantity, keyed on the receiving task. The
				// counters were preformatted in newTaskState, keeping
				// fmt.Sprintf out of the receive path.
				st.exchTupleCounters[src].Add(got)
			}
			if filtered {
				st.recvGot[src] = got
			}
			if mismatch == nil && (got > rl.srcCnt[src] || !filtered && got != rl.srcCnt[src]) {
				bound := ""
				if filtered {
					bound = "at most "
				}
				mismatch = fmt.Errorf("core: task %d received %d tuples from %d, index predicts %s%d — input changed since IndexCreate?",
					st.rank, got, src, bound, rl.srcCnt[src])
			}
		},
	)
	// Messages are zero-copy views into this task's kmerOut. After the
	// pass's last round the barrier guarantees every peer has copied its
	// message out before LocalSort or the next pass reuses the buffer. (A
	// real MPI transfer copies on the wire; this is the in-process
	// equivalent of waiting on the sends.) Earlier rounds need no barrier:
	// round r+1 writes the other generation slot, and round r+2 — which
	// reuses this one — starts only after every peer's round r+1 message has
	// arrived, which each peer sends only after its round r exchange has
	// copied this task's round r message out.
	if last {
		st.t.Barrier()
	}
	d := time.Since(t0) + st.t.TakeCommTime()
	st.rep.Steps.KmerGenComm += d
	st.stepSpan("KmerGen-Comm", t0, d)
	return mismatch
}

// partitionSink keeps a pass's received tuples in RAM: the exchange lands
// each message at its planned offset in kmerIn, and seal sorts them into
// kmerOut's T thread partitions, which LocalCC then reads in place.
type partitionSink struct {
	st *taskState
	in *tupleBuf // kmerIn: the receive buffer, then the radix sort's scratch
}

func (ps *partitionSink) open(int) error { return nil }

func (ps *partitionSink) receive(off uint64, m tupleMsg) uint64 {
	return ps.in.receive(off, m)
}

// seal sorts the pass (the prefilter's dynamic counts take the counting-
// scan layout) and returns a zero-copy view of each sorted partition.
func (ps *partitionSink) seal(s int, rl recvLayout) ([]*groupSource, error) {
	st := ps.st
	var sl sortLayout
	if st.keep != nil {
		sl = ps.sortLayoutFiltered(s, rl)
	} else {
		sl = st.p.sortLayout(s, st.rank, rl)
	}
	ps.localSort(s, sl)
	srcs := make([]*groupSource, len(sl.partOff))
	for d := range srcs {
		srcs[d] = &groupSource{buf: st.out, pos: sl.partOff[d], end: sl.partOff[d] + sl.partCnt[d]}
	}
	return srcs, nil
}

func (ps *partitionSink) memBytes() int64 { return ps.in.memBytes() }

func (ps *partitionSink) cleanup() { ps.st.p.cfg.releaseTupleBuf(ps.in) }

// localSort runs the two stages of §3.4 on the received tuples: a parallel
// range partition of kmerIn into T thread partitions of kmerOut (each
// (source region, destination partition) cell writing through its own
// precomputed cursor), then T concurrent serial radix sorts, one partition
// per thread, with kmerIn as the out-of-place scratch.
func (ps *partitionSink) localSort(s int, sl sortLayout) {
	st := ps.st
	T := st.p.cfg.Threads
	nr := len(sl.regionOff)

	t0 := time.Now()
	obs := st.obs
	// Stage 1: partition. Work units are the P×T source regions of kmerIn.
	lut, binLo := st.p.threadLUT(s, st.rank)
	par.For(T, nr, func(r int) {
		cursor := make([]uint64, T)
		copy(cursor, sl.scatter[r*T:(r+1)*T])
		off, cnt := sl.regionOff[r], sl.regionCnt[r]
		in, out := ps.in, st.out
		if in.wide() {
			for i := off; i < off+cnt; i++ {
				d := lut[binOf128(in.hi[i], in.lo[i], st.p.idx.Opts.K, st.p.idx.Opts.M)-binLo]
				j := cursor[d]
				cursor[d]++
				out.moveTuple(j, in, i)
			}
		} else {
			k, m := st.p.idx.Opts.K, st.p.idx.Opts.M
			shift := 2 * uint(k-m)
			for i := off; i < off+cnt; i++ {
				d := lut[int(in.lo[i]>>shift)-binLo]
				j := cursor[d]
				cursor[d]++
				out.moveTuple(j, in, i)
			}
		}
	})
	t1 := time.Now()
	obs.RecordSpan(st.rank, obsv.TidSteps, "detail", "sort-partition", t0, t1.Sub(t0), nil)
	// Stage 2: per-thread serial radix sort of each partition, scratch in
	// the (now consumed) kmerIn. Each partition's bin range bounds its key
	// range, and merHist holds its exact per-bin counts (every tuple whose
	// bin falls in a thread range is routed here), so the sort skips the
	// passes the partitioning already decided.
	shift := 2 * uint(st.p.idx.Opts.K-st.p.idx.Opts.M)
	par.Run(T, func(d int) {
		binCounts := st.p.idx.MerHist[sl.partBinLo[d]:sl.partBinHi[d]]
		if st.keep != nil {
			// MerHist describes the unfiltered tuple stream; under the
			// prefilter the radix sort falls back to its counting path.
			binCounts = nil
		}
		kr := keyRange{
			binLo:     sl.partBinLo[d],
			binHi:     sl.partBinHi[d],
			shift:     shift,
			binCounts: binCounts,
		}
		st.out.sortRange(sl.partOff[d], sl.partCnt[d], kr, ps.in)
	})
	obs.RecordSpan(st.rank, obsv.TidSteps, "detail", "sort-radix", t1, time.Since(t1), nil)
	d := time.Since(t0)
	st.rep.Steps.LocalSort += d
	st.stepSpan("LocalSort", t0, d)
}

// threadLUT is pass s's bin → LocalSort thread map over task rank's bin
// range, lut[bin-binLo] (the same shape as KmerGen's owner table), filled
// by walking the cut list once — cuts are contiguous and ordered, so each
// thread's bin range [cuts[d], cuts[d+1]) is one contiguous fill.
func (p *plan) threadLUT(s, rank int) (lut []uint16, binLo int) {
	thrCuts := p.pt.ThreadCuts(s, rank)
	binLo = thrCuts[0]
	lut = make([]uint16, thrCuts[len(thrCuts)-1]-binLo)
	for d := 0; d < len(thrCuts)-1; d++ {
		for b := thrCuts[d] - binLo; b < thrCuts[d+1]-binLo; b++ {
			lut[b] = uint16(d)
		}
	}
	return lut, binLo
}

// binOf128 extracts the m-mer prefix bin from a packed 128-bit key.
func binOf128(hi, lo uint64, k, m int) int {
	shift := 2 * uint(k-m)
	if shift >= 64 {
		return int(hi >> (shift - 64))
	}
	if shift == 0 {
		return int(lo)
	}
	return int(lo>>shift | hi<<(64-shift))
}

// groupSource is one LocalCC thread's key-ordered tuple stream, yielded as
// equal-key groups: either a zero-copy view of a sorted kmerOut partition
// or, when sp is set, a loser-tree merge of segment d of every spilled run,
// whose group values are buffered in one reused slice. Both walks are plain
// loops over concrete types; a group costs one direct call.
type groupSource struct {
	// buf[pos:end) is the sorted partition (in-RAM sources).
	buf      *tupleBuf
	pos, end uint64

	// Merge sources: the merger is built on the first next, on the
	// consuming thread, so the T threads prime their runs in parallel.
	sp   *spillState
	d    int
	mg   *extsort.Merger
	vals []uint32

	err error
}

// next returns the next group: its key and the values of every tuple that
// carries it, in stream order. vals is valid until the following call and
// may be reordered in place by the caller. ok is false at the end of the
// stream or on a read error (reported by err).
func (g *groupSource) next() (hi, lo uint64, vals []uint32, ok bool) {
	if g.sp != nil {
		if g.mg == nil && g.err == nil {
			g.mg, g.err = g.sp.merger(g.d)
		}
		if g.err != nil {
			return 0, 0, nil, false
		}
		hi, lo, g.vals, ok, g.err = g.mg.NextGroup(g.vals[:0])
		return hi, lo, g.vals, ok
	}
	i, end := g.pos, g.end
	if i >= end {
		return 0, 0, nil, false
	}
	b := g.buf
	lo = b.lo[i]
	j := i + 1
	if b.hi == nil {
		for j < end && b.lo[j] == lo {
			j++
		}
	} else {
		hi = b.hi[i]
		for j < end && b.lo[j] == lo && b.hi[j] == hi {
			j++
		}
	}
	g.pos = j
	return hi, lo, b.val[i:j], true
}

// close stops a merge source's segment readers and releases its blocks.
// Idempotent; a no-op for in-RAM sources.
func (g *groupSource) close() {
	if g.mg != nil {
		g.mg.Close()
		g.mg, g.vals = nil, nil
		g.sp.st.spillMemAdd(-g.sp.mergeBlockBytes())
	}
}

// closeSources closes every source, so that no merge reader outlives its
// pass on any exit path.
func closeSources(srcs []*groupSource) {
	for _, g := range srcs {
		g.close()
	}
}

// localCC runs §3.5 over pass s's sorted sources, one thread per source
// (ccThread), then Algorithm 1's re-verification rounds (ccFinish).
func (st *taskState) localCC(s int, srcs []*groupSource) error {
	T := len(srcs)
	t0 := time.Now()
	edgeCounts := make([]uint64, T)
	retries := make([][]unionfind.Edge, T)
	hists := make([][]uint64, T)
	errs := make([]error, T)
	par.Run(T, func(d int) {
		edgeCounts[d], retries[d], hists[d], errs[d] = st.ccThread(s, d, srcs[d])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	st.ccFinish(t0, edgeCounts, retries, hists)
	return nil
}

// ccThread walks one source's equal-key groups. A group's length goes into
// the frequency spectrum — it falls out of the sorted groups for free, and
// is what a user consults to pick the §4.4 bounds; a group that passes the
// frequency filter becomes star edges (first value — every other value) for
// the shared lock-free union–find, buffering the union-producing ones for
// re-verification; and with an artifact emit the group is teed into the
// thread's part file with its values in ascending order. The sort runs only
// for the tee: union-by-index makes components independent of edge order,
// so runs without an artifact never pay for it.
func (st *taskState) ccThread(s, d int, src *groupSource) (edges uint64, retry []unionfind.Edge, hist []uint64, err error) {
	defer src.close()
	var tee *partTee
	if st.emit != nil {
		if tee, err = st.emit.newPartTee(s, st.rank, d); err != nil {
			return 0, nil, nil, err
		}
		defer tee.discard()
	}
	filter := st.p.cfg.Filter
	hist = make([]uint64, freqHistSize)
	for n := 1; ; n++ {
		hi, lo, vals, ok := src.next()
		if !ok {
			break
		}
		f := len(vals)
		hist[min(f, freqHistSize-1)]++
		if tee != nil {
			slices.Sort(vals)
			tee.add(hi, lo, vals)
		}
		if f >= 2 && filter.Keep(uint32(f)) {
			v0 := vals[0]
			for _, vi := range vals[1:] {
				if st.dsu.Connect(v0, vi) {
					retry = append(retry, unionfind.Edge{U: v0, V: vi})
				}
			}
			edges += uint64(f - 1)
		}
		if n&8191 == 0 && st.ctx.Err() != nil {
			return 0, nil, nil, st.ctx.Err()
		}
	}
	if src.err != nil {
		return 0, nil, nil, src.err
	}
	if tee != nil {
		if err := tee.close(); err != nil {
			return 0, nil, nil, err
		}
	}
	return edges, retry, hist, nil
}

// ccFinish is LocalCC's tail: fold the per-thread frequency histograms,
// run Algorithm 1's outer re-verification loop over the buffered edges, and
// charge the step.
func (st *taskState) ccFinish(t0 time.Time, edgeCounts []uint64, retries [][]unionfind.Edge, hists [][]uint64) {
	T := st.p.cfg.Threads
	for _, h := range hists {
		for f, c := range h {
			st.freqHist[f] += c
		}
	}
	// Algorithm 1's outer loop: re-verify buffered edges until none remain.
	iters := 1
	for {
		any := false
		for d := range retries {
			if len(retries[d]) > 0 {
				any = true
			}
		}
		if !any {
			break
		}
		iters++
		par.Run(T, func(d int) {
			buf := retries[d][:0]
			for _, e := range retries[d] {
				if st.dsu.Connect(e.U, e.V) {
					buf = append(buf, e)
				}
			}
			retries[d] = buf
		})
	}
	if iters > st.rep.CCIters {
		st.rep.CCIters = iters
	}
	st.rep.Edges += edgesOf(edgeCounts)
	d := time.Since(t0)
	st.rep.Steps.LocalCC += d
	var args map[string]any
	if st.obs != nil { // avoid the map allocation on the disabled path
		args = map[string]any{"edges": edgesOf(edgeCounts), "iterations": iters}
	}
	st.obs.RecordSpan(st.rank, obsv.TidSteps, "step", "LocalCC", t0, d, args)
	st.obs.Histogram(st.rank, "step/LocalCC").Observe(d)
}

func edgesOf(counts []uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}
