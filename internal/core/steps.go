package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"metaprep/internal/extsort"
	"metaprep/internal/obsv"
	"metaprep/internal/par"
	"metaprep/internal/radix"
	"metaprep/internal/unionfind"
)

// steps.go implements the middle of one pipeline pass, identical for every
// memory shape: KmerGen → exchange rounds land tuples in a tupleSink
// (§3.3), the sink's seal runs LocalSort (§3.4) and hands each LocalCC
// thread a key-ordered groupSource, and localCC turns the equal-key groups
// into union–find edges (§3.5). Config.SpillBudgetBytes decides only which
// sink holds the tuples: binSink receives them straight into bin order in
// RAM and sorts bin by bin, runSink (spill.go) sorts budget-sized runs to
// disk and merges them back.

// errStaleIndex is wrapped by every error that means the input no longer
// matches the index's counts: the FASTQ changed after IndexCreate, so the
// precomputed offsets would misplace tuples.
var errStaleIndex = errors.New("input changed since IndexCreate?")

// tupleSink is where one task's exchanged tuples live between the exchange
// and LocalCC. One sink serves every pass of a task, in pass order.
type tupleSink interface {
	// open readies the sink for pass s's tuples, before its KmerGen, and
	// releases what the previous pass's sources needed.
	open(s int) error
	// receive lands one message from task src. An error means the index
	// no longer describes the input; nothing has been written then.
	receive(src int, m tupleMsg) error
	// seal runs and charges pass s's LocalSort step. It returns T sorted
	// sources, source d holding exactly thread d's bin range; the caller
	// drains and closes every one before the next pass's exchange.
	seal(s int) ([]*groupSource, error)
	// memBytes is the sink's planned memory, for the §3.7 inventory.
	memBytes() int64
	// cleanup releases the sink's buffers and scratch files on every exit
	// path.
	cleanup()
}

// openPasses readies a task for its passes: the input files, the chunk
// buffers, kmerOut (the two generation slots) and the sink the plan calls
// for. spillDir is the run-scoped scratch directory a spilling plan's runs
// go to; that plan's memory gauge starts with kmerOut, since the budget
// covers the generation slots too. closePasses undoes it on every exit
// path.
func (st *taskState) openPasses(spillDir string) (tupleSink, error) {
	files, err := openInputs(st.p.idx)
	if err != nil {
		return nil, err
	}
	st.files = files
	st.allocChunkBufs()
	st.out = st.p.cfg.acquireTupleBuf(st.p.bufTuples[st.rank], !st.p.use64())
	if st.p.spill {
		st.spillMemAdd(st.out.memBytes())
		return newRunSink(st, spillDir), nil
	}
	return newBinSink(st), nil
}

// allocChunkBufs sizes the task's chunk read buffers once, to its largest
// chunk: each thread's 1+prefetch-depth buffers serve its chunk fetcher in
// every pass and CC-I/O (§3.7 charges exactly these).
// Every path that reads chunks calls it first.
func (st *taskState) allocChunkBufs() {
	pl := st.p
	for _, ci := range pl.taskChunks[st.rank] {
		st.maxChunkBytes = max(st.maxChunkBytes, pl.idx.Chunks[ci].Size)
	}
	st.chunkBufs = make([][][]byte, pl.cfg.Threads)
	for t := range st.chunkBufs {
		st.chunkBufs[t] = make([][]byte, 1+pl.cfg.prefetchDepth())
		for i := range st.chunkBufs[t] {
			st.chunkBufs[t][i] = make([]byte, 0, st.maxChunkBytes)
		}
	}
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
		if err := st.genExchange(s, sink); err != nil {
			return err
		}
		srcs, err := sink.seal(s)
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
// fills one generation slot of kmerOut from one group of this task's chunks
// and ships it, at the index-predicted region counts, in one §3.3
// all-to-all; the plan sizes the rounds from the index (plan.groupChunks).
// Each thread's chunk fetcher lives for the whole pass, so reads keep
// prefetching across round boundaries.
func (st *taskState) genExchange(s int, sink tupleSink) error {
	pl, T := st.p, st.p.cfg.Threads
	fetchers := make([]*chunkFetcher, T)
	for t := range fetchers {
		fetchers[t] = newChunkFetcher(pl.passChunks(s, st.rank, t), pl.idx, st.files,
			pl.cfg.prefetchDepth(), st.chunkBufs[t], st.obs, st.rank, obsv.TidPrefetch+t)
	}
	defer func() {
		for _, f := range fetchers {
			f.close()
		}
	}()
	owner := pl.binOwners(s)
	for r := 0; r < pl.rounds[s]; r++ {
		gl := pl.genLayout(s, st.rank, r)
		if err := st.kmerGen(s, r, gl, owner, fetchers); err != nil {
			return err
		}
		if err := st.exchange(s, sink, gl, r+1 == pl.rounds[s]); err != nil {
			return err
		}
	}
	st.counter("kmergen/rounds").Add(uint64(pl.rounds[s]))
	return nil
}

// exchange runs the custom all-to-all of §3.3: P stages of point-to-point
// messages, stage i pairing rank→rank+i, each shipping gl.dstCnt[dst] tuples
// from dst's region of kmerOut. Each received message lands in sink; the
// sender's KmerGen has already checked its counts against the index, which
// every task plans from. last marks the pass's final round, the only one
// that ends in a barrier.
func (st *taskState) exchange(s int, sink tupleSink, gl genLayout, last bool) error {
	t0 := time.Now()
	var mismatch error
	st.t.AllToAll(tagTuples+s,
		func(dst int) (any, int) {
			cnt := gl.dstCnt[dst]
			return st.out.msgFor(gl.dstOff[dst], cnt), int(cnt) * st.out.bytesPerTuple()
		},
		func(src int, payload any) {
			if mismatch != nil {
				return
			}
			m := payload.(tupleMsg)
			if mismatch = sink.receive(src, m); mismatch != nil {
				return
			}
			if st.exchTupleCounters != nil {
				// Per-rank-pair volume: the Fig. 8 communication
				// imbalance quantity, keyed on the receiving task. The
				// counters were preformatted in newTaskState, keeping
				// fmt.Sprintf out of the receive path.
				st.exchTupleCounters[src].Add(uint64(len(m.lo)))
			}
		},
	)
	// Messages are zero-copy views into this task's kmerOut. After the
	// pass's last round the barrier guarantees every peer has copied its
	// message out before the next pass reuses the buffer. (A real MPI
	// transfer copies on the wire; this is the in-process equivalent of
	// waiting on the sends.) Earlier rounds need no barrier: round r+1
	// writes the other generation slot, and round r+2 — which reuses this
	// one — starts only after every peer's round r+1 message has arrived,
	// which each peer sends only after its round r exchange has copied this
	// task's round r message out.
	if last {
		st.t.Barrier()
	}
	d := time.Since(t0) + st.t.TakeCommTime()
	st.rep.Steps.KmerGenComm += d
	st.stepSpan("KmerGen-Comm", t0, d)
	return mismatch
}

// binSink keeps a pass's received tuples in RAM, already in m-mer bin
// order: one receive buffer holds a slot per (bin, source task), bin-major,
// sized at open from the chunk histograms of every source's pass chunks
// (§3.3's receive offsets, refined from tasks to bins). A bin therefore
// holds its tuples in source-rank order and, within a source, in chunk
// order — the arrival order LocalSort's stable sort preserves for equal
// keys. receive scatters each message into its slots (the range partition
// of §3.4, done on arrival), and seal only has to sort each bin in place.
type binSink struct {
	st  *taskState
	buf *tupleBuf // the receive buffer, every slot of the largest pass
	P   int
	// binLo is the task's first bin in the open pass, nb its bin count.
	binLo, nb int
	shift     uint
	// off[(b-binLo)*P+src] is where slot (b, src) starts, off[nb*P] the
	// end of the last one; cur is each slot's write cursor.
	off, cur []uint64
	// cnt[w] is receive worker w's per-bin tuple count over its share of
	// a message, then its exclusive scatter cursors.
	cnt [][]uint64
	// sorters are LocalSort's per-thread bin sorters, their scratch sized
	// to the largest bin, of largest tuples.
	sorters []radix.BinSorter
	largest uint64
}

// recvMinPerWorker is the message share below which receive does not add a
// scatter worker: a goroutine hand-off costs more than scattering a few
// thousand tuples.
const recvMinPerWorker = 1 << 14

// newBinSink allocates the receive buffer, the slot and cursor tables for
// the widest bin range any pass gives this task, and the bin sorters.
func newBinSink(st *taskState) *binSink {
	pl, T := st.p, st.p.cfg.Threads
	bs := &binSink{
		st:      st,
		buf:     pl.cfg.acquireTupleBuf(pl.recvTuples[st.rank], !pl.use64()),
		P:       pl.cfg.Tasks,
		shift:   2 * uint(pl.idx.Opts.K-pl.idx.Opts.M),
		cnt:     make([][]uint64, T),
		sorters: make([]radix.BinSorter, T),
	}
	var bins int
	for s := 0; s < pl.cfg.Passes; s++ {
		lo, hi := pl.pt.TaskRange(s, st.rank)
		bins = max(bins, hi-lo)
		for _, c := range pl.idx.MerHist[lo:hi] {
			bs.largest = max(bs.largest, c)
		}
	}
	bs.off = make([]uint64, bins*bs.P+1)
	bs.cur = make([]uint64, bins*bs.P)
	for w := range bs.cnt {
		bs.cnt[w] = make([]uint64, bins)
	}
	for d := range bs.sorters {
		bs.sorters[d].Grow(int(bs.largest), !pl.use64())
	}
	return bs
}

// open lays out pass s's slots: each source's chunk histograms over the
// task's bin range give every slot's size, and an exclusive prefix sum
// over (bin, source) order its offset.
func (bs *binSink) open(s int) error {
	pl := bs.st.p
	lo, hi := pl.pt.TaskRange(s, bs.st.rank)
	bs.binLo, bs.nb = lo, hi-lo
	n := bs.nb * bs.P
	off := bs.off[:n+1]
	clear(off)
	for src := 0; src < bs.P; src++ {
		for _, ci := range pl.taskChunks[src] {
			hist := &pl.idx.Chunks[ci].Hist
			for b := range bs.nb {
				off[b*bs.P+src+1] += uint64(hist.Count(lo + b))
			}
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	if off[n] > uint64(len(bs.buf.lo)) {
		return fmt.Errorf("core: task %d pass %d: chunk histograms promise %d tuples, the index's m-mer histogram %d — index corrupt?",
			bs.st.rank, s, off[n], len(bs.buf.lo))
	}
	copy(bs.cur, off[:n])
	return nil
}

// receive scatters message m from task src into its (bin, src) slots: W
// workers each count the bins of a contiguous share of m, a serial prefix
// over (bin, worker) turns the counts into exclusive write cursors — and
// checks that no slot would overflow before any tuple moves — and the
// workers then scatter their shares through their own cursors. Shares are
// scattered in message order, so a slot fills in arrival order.
func (bs *binSink) receive(src int, m tupleMsg) error {
	n := len(m.lo)
	if n == 0 {
		return nil
	}
	W := min(len(bs.cnt), max(1, n/recvMinPerWorker))
	nb, binLo, shift := bs.nb, bs.binLo, bs.shift
	k, mm := bs.st.p.idx.Opts.K, bs.st.p.idx.Opts.M
	wide := m.hi != nil
	par.Run(W, func(w int) {
		lo, hi := par.Block(n, W, w)
		c := bs.cnt[w][:nb]
		clear(c)
		if wide {
			for i := lo; i < hi; i++ {
				c[binOf128(m.hi[i], m.lo[i], k, mm)-binLo]++
			}
			return
		}
		for _, key := range m.lo[lo:hi] {
			c[int(key>>shift)-binLo]++
		}
	})
	for b := 0; b < nb; b++ {
		slot := b*bs.P + src
		pos := bs.cur[slot]
		for w := 0; w < W; w++ {
			c := bs.cnt[w][b]
			bs.cnt[w][b] = pos
			pos += c
		}
		if pos > bs.off[slot+1] {
			return fmt.Errorf("core: task %d: bin %d receives more than the %d tuples the index predicts from task %d — %w",
				bs.st.rank, binLo+b, bs.off[slot+1]-bs.off[slot], src, errStaleIndex)
		}
		bs.cur[slot] = pos
	}
	buf := bs.buf
	par.Run(W, func(w int) {
		lo, hi := par.Block(n, W, w)
		c := bs.cnt[w]
		if wide {
			for i := lo; i < hi; i++ {
				b := binOf128(m.hi[i], m.lo[i], k, mm) - binLo
				j := c[b]
				c[b] = j + 1
				buf.hi[j], buf.lo[j], buf.val[j] = m.hi[i], m.lo[i], m.val[i]
			}
			return
		}
		vals := m.val[lo:hi]
		for i, key := range m.lo[lo:hi] {
			b := int(key>>shift) - binLo
			j := c[b]
			c[b] = j + 1
			buf.lo[j], buf.val[j] = key, vals[i]
		}
	})
	return nil
}

// seal is LocalSort (§3.4) over bins that are already in place: every slot
// is exactly full, so bin b is the one contiguous range
// [off[b·P], off[(b+1)·P]), and each LocalCC thread sorts the bins of its
// contiguous bin range in place. It returns a zero-copy view of each
// thread's now sorted range.
func (bs *binSink) seal(s int) ([]*groupSource, error) {
	st := bs.st
	t0 := time.Now()
	cuts := st.p.pt.ThreadCuts(s, st.rank)
	srcs := make([]*groupSource, len(cuts)-1)
	buf, P := bs.buf, bs.P
	wide := buf.wide()
	par.Run(len(srcs), func(d int) {
		b0, b1 := cuts[d]-bs.binLo, cuts[d+1]-bs.binLo
		for b := b0; b < b1; b++ {
			lo, hi := bs.off[b*P], bs.off[(b+1)*P]
			if wide {
				bs.sorters[d].Sort128(buf.hi[lo:hi], buf.lo[lo:hi], buf.val[lo:hi], bs.shift)
			} else {
				bs.sorters[d].Sort64(buf.lo[lo:hi], buf.val[lo:hi], bs.shift)
			}
		}
		srcs[d] = &groupSource{buf: buf, pos: bs.off[b0*P], end: bs.off[b1*P]}
	})
	d := time.Since(t0)
	st.rep.Steps.LocalSort += d
	st.stepSpan("LocalSort", t0, d)
	return srcs, nil
}

// memBytes charges the receive buffer, the slot and cursor tables and the
// bin sorters' scratch.
func (bs *binSink) memBytes() int64 {
	tables := len(bs.off) + len(bs.cur) + len(bs.cnt)*len(bs.cnt[0])
	scratch := int64(len(bs.sorters)) * int64(bs.largest*bs.st.p.bytesPerTuple())
	return bs.buf.memBytes() + 8*int64(tables) + scratch
}

func (bs *binSink) cleanup() { bs.st.p.cfg.releaseTupleBuf(bs.buf) }

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
// equal-key groups: either a zero-copy view of a sorted receive-buffer range
// or, when sp is set, a loser-tree merge of segment d of every spilled run,
// whose group values are buffered in one reused slice. Both walks are plain
// loops over concrete types; a group costs one direct call.
type groupSource struct {
	// buf[pos:end) is the sorted range (in-RAM sources).
	buf      *tupleBuf
	pos, end uint64

	// Merge sources: the merger is built on the first next, on the
	// consuming thread, so the T threads prime their runs in parallel.
	// over is the read-ahead charged beyond the builders (merger).
	sp     *spillState
	d      int
	mg     *extsort.Merger
	vals   []uint32
	over   int64
	closed bool

	err error
}

// next returns the next group: its key and the values of every tuple that
// carries it, in stream order. vals is valid until the following call and
// may be reordered in place by the caller. ok is false at the end of the
// stream or on a read error (reported by err).
func (g *groupSource) next() (hi, lo uint64, vals []uint32, ok bool) {
	if g.sp != nil {
		if g.mg == nil && g.err == nil {
			g.mg, g.over, g.err = g.sp.merger(g.d)
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

// close stops a merge source's segment readers, waiting for their decode
// goroutines, and drops its overflow charge; when it is the last pass's
// last open source, the builders behind every merge block go back too.
// Idempotent; a no-op for in-RAM sources.
func (g *groupSource) close() {
	if g.sp == nil || g.closed {
		return
	}
	g.closed = true
	if g.mg != nil {
		g.mg.Close()
		g.mg = nil
	}
	g.sp.st.spillMemAdd(-g.over)
	if g.sp.open.Add(-1) == 0 && g.sp.last {
		g.sp.sink.releaseBufs()
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
//
// The per-thread retry buffers and frequency histograms are the task's,
// allocated at its first pass and reused by every later one.
func (st *taskState) localCC(s int, srcs []*groupSource) error {
	T := len(srcs)
	t0 := time.Now()
	if st.ccRetry == nil {
		st.ccRetry = make([][]unionfind.Edge, T)
		st.ccHist = make([][]uint64, T)
		for d := range st.ccHist {
			st.ccHist[d] = make([]uint64, freqHistSize)
		}
	}
	edgeCounts := make([]uint64, T)
	errs := make([]error, T)
	par.Run(T, func(d int) {
		clear(st.ccHist[d])
		edgeCounts[d], st.ccRetry[d], errs[d] = st.ccThread(s, d, srcs[d], st.ccRetry[d][:0], st.ccHist[d])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	st.ccFinish(t0, edgeCounts, st.ccRetry, st.ccHist)
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
//
// retry is appended to and returned; hist, freqHistSize bins, is added to.
func (st *taskState) ccThread(s, d int, src *groupSource, retry []unionfind.Edge, hist []uint64) (edges uint64, _ []unionfind.Edge, err error) {
	defer src.close()
	var tee *partTee
	if st.emit != nil {
		if tee, err = st.emit.newPartTee(s, st.rank, d); err != nil {
			return 0, retry, err
		}
		defer tee.discard()
	}
	filter := st.p.cfg.Filter
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
			return 0, retry, st.ctx.Err()
		}
	}
	if src.err != nil {
		return 0, retry, src.err
	}
	if tee != nil {
		if err := tee.close(); err != nil {
			return 0, retry, err
		}
	}
	return edges, retry, nil
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
	st.p.heap.sample(st.rank)
}

func edgesOf(counts []uint64) uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	return n
}
