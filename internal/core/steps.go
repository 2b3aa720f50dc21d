package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"metaprep/internal/index"
	"metaprep/internal/model"
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
// sink holds the tuples: binSink receives them into groups of consecutive
// bins in RAM and sorts group by group, bucketSink (spill.go) spills them
// into buckets of consecutive bins on disk and loads and sorts bucket by
// bucket. Both lay their bins out by the index's m-mer histogram
// (binOffsets) and check every sorted bin against it (checkBins).

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
// for. scratch is the run's scratch directory, where a spilling plan's
// buckets go; that plan's memory gauge starts with kmerOut, since the
// budget covers the generation slots too. closePasses undoes it on every
// exit path.
func (st *taskState) openPasses(scratch string) (tupleSink, error) {
	files, err := openInputs(st.p.idx)
	if err != nil {
		return nil, err
	}
	st.files = files
	st.allocChunkBufs()
	st.out = st.p.cfg.acquireTupleBuf(st.p.bufTuples[st.rank], !st.p.use64())
	if st.p.spill {
		st.spillMemAdd(st.out.memBytes())
		return newBucketSink(st, scratch), nil
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
			r0 := time.Now()
			if mismatch = sink.receive(src, m); mismatch != nil {
				return
			}
			if st.obs != nil {
				// The receive's own share of the step (the scatter into
				// group slots, or into bucket write buffers and their
				// appends to disk), on the rank's comm track.
				st.obs.RecordSpan(st.rank, obsv.TidComm, "detail", "recv-scatter", r0, time.Since(r0),
					map[string]any{"src": src, "tuples": len(m.lo)})
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

// binSink keeps a pass's received tuples in RAM, in m-mer bin order once
// sealed. One receive buffer holds a slot per (group, source task),
// group-major, where a group is 2^g consecutive bins aligned on the absolute
// bin index (model.RecvGroupShift of the task's widest bin range, so a
// source scatters into about 1 024 slots whose write cursors stay in
// cache). open sizes every slot, and every bin's final offset, from the
// chunk histograms of every source's pass chunks (§3.3's receive offsets,
// refined from tasks to bins). A group therefore holds its tuples in
// source-rank order and, within a source, in chunk order — the arrival
// order LocalSort's stable sort preserves for equal keys. receive scatters
// each message into its group slots (the range partition of §3.4, done on
// arrival, one group of bins at a time), and seal sorts each group in place,
// in cache, which also lays out its bins.
type binSink struct {
	st  *taskState
	buf *tupleBuf // the receive buffer, every slot of the largest pass
	P   int
	// g is the group shift: a group holds the 2^g bins that agree above
	// bit g of the bin index.
	g uint
	// binLo is the task's first bin in the open pass and nb its bin count;
	// grpLo is binLo's group and ng the pass's group count.
	binLo, nb, grpLo, ng int
	shift                uint
	// off[(gi-grpLo)*P+src] is where slot (group gi, src) starts, off[ng*P]
	// the end of the last one; cur is each slot's write cursor.
	off, cur []uint64
	// binOff[b-binLo] is where bin b starts once its group is sorted,
	// binOff[nb] the end of the last bin.
	binOff []uint64
	// cnt[w] is receive worker w's per-group tuple count over its share of
	// a message, then its exclusive scatter cursors.
	cnt [][]uint64
	// sorters are LocalSort's per-thread group sorters, their scratch sized
	// to the largest group, of largest tuples.
	sorters []radix.BinSorter
	largest uint64
}

// recvMinPerWorker is the message share below which receive does not add a
// scatter worker: a goroutine hand-off costs more than scattering a few
// thousand tuples.
const recvMinPerWorker = 1 << 14

// newBinSink allocates the receive buffer, the slot, cursor and bin tables
// for the widest bin range any pass gives this task, and the group sorters.
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
	var bins, groups int
	for s := 0; s < pl.cfg.Passes; s++ {
		lo, hi := pl.pt.TaskRange(s, st.rank)
		bins = max(bins, hi-lo)
	}
	bs.g = model.RecvGroupShift(bins)
	for s := 0; s < pl.cfg.Passes; s++ {
		lo, hi := pl.pt.TaskRange(s, st.rank)
		n := 0
		for b := lo; b < hi; n++ {
			end := min(hi, (b>>bs.g+1)<<bs.g)
			bs.largest = max(bs.largest, index.RangeCount64(pl.idx.MerHist, b, end))
			b = end
		}
		groups = max(groups, n)
	}
	bs.off = make([]uint64, groups*bs.P+1)
	bs.cur = make([]uint64, groups*bs.P)
	bs.binOff = make([]uint64, bins+1)
	for w := range bs.cnt {
		bs.cnt[w] = make([]uint64, groups)
	}
	for d := range bs.sorters {
		bs.sorters[d].Grow(int(bs.largest), !pl.use64())
	}
	return bs
}

// open lays out pass s's slots: every bin's offset comes from the index's
// m-mer histogram (binOffsets), and every slot's size from one range count
// of each source chunk's histogram over each group. The two must agree on
// the pass's total.
func (bs *binSink) open(s int) error {
	pl := bs.st.p
	lo, hi := pl.pt.TaskRange(s, bs.st.rank)
	bs.binLo, bs.nb, bs.grpLo, bs.ng = lo, hi-lo, lo>>bs.g, 0
	if hi > lo {
		bs.ng = (hi-1)>>bs.g - bs.grpLo + 1
	}
	n := bs.ng * bs.P
	off := bs.off[:n+1]
	clear(off)
	pl.binOffsets(bs.binOff, lo, hi)
	for src := 0; src < bs.P; src++ {
		for _, ci := range pl.taskChunks[src] {
			hist := &pl.idx.Chunks[ci].Hist
			for gi := range bs.ng {
				b0, b1 := max(lo, (bs.grpLo+gi)<<bs.g), min(hi, (bs.grpLo+gi+1)<<bs.g)
				off[gi*bs.P+src+1] += hist.RangeCount(b0, b1)
			}
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	if total := bs.binOff[bs.nb]; off[n] != total || total > uint64(len(bs.buf.lo)) {
		return fmt.Errorf("core: task %d pass %d: chunk histograms promise %d tuples, the index's m-mer histogram %d — index corrupt?",
			bs.st.rank, s, off[n], total)
	}
	copy(bs.cur, off[:n])
	return nil
}

// binOffsets fills off[:hi-lo+1] with the exclusive prefix sums of the
// index's m-mer histogram over bins [lo, hi): once a task's pass is sorted
// in bin order, bin lo+i fills its tuples [off[i], off[i+1]).
func (p *plan) binOffsets(off []uint64, lo, hi int) {
	off[0] = 0
	for b := lo; b < hi; b++ {
		off[b-lo+1] = off[b-lo] + p.idx.MerHist[b]
	}
}

// receive scatters message m from task src into its (group, src) slots: W
// workers each count the groups of a contiguous share of m, a serial pass
// checks that no slot would overflow — before any tuple or cursor moves —
// a serial prefix over (group, worker) turns the counts into exclusive
// write cursors, and the workers then scatter their shares through their
// own cursors. Shares are scattered in message order, so a slot fills in
// arrival order.
func (bs *binSink) receive(src int, m tupleMsg) error {
	n := len(m.lo)
	if n == 0 {
		return nil
	}
	W := min(len(bs.cnt), max(1, n/recvMinPerWorker))
	ng, grpLo, g, gshift := bs.ng, bs.grpLo, bs.g, bs.shift+bs.g
	k, mm := bs.st.p.idx.Opts.K, bs.st.p.idx.Opts.M
	wide := m.hi != nil
	par.Run(W, func(w int) {
		lo, hi := par.Block(n, W, w)
		c := bs.cnt[w][:ng]
		clear(c)
		if wide {
			for i := lo; i < hi; i++ {
				c[binOf128(m.hi[i], m.lo[i], k, mm)>>g-grpLo]++
			}
			return
		}
		for _, key := range m.lo[lo:hi] {
			c[int(key>>gshift)-grpLo]++
		}
	})
	for gi := 0; gi < ng; gi++ {
		slot := gi*bs.P + src
		pos := bs.cur[slot]
		for w := 0; w < W; w++ {
			pos += bs.cnt[w][gi]
		}
		if pos > bs.off[slot+1] {
			b0 := max(bs.binLo, (grpLo+gi)<<g)
			b1 := min(bs.binLo+bs.nb, (grpLo+gi+1)<<g) - 1
			return fmt.Errorf("core: task %d: bin group %d–%d receives more than the %d tuples the index predicts from task %d — %w",
				bs.st.rank, b0, b1, bs.off[slot+1]-bs.off[slot], src, errStaleIndex)
		}
	}
	for gi := 0; gi < ng; gi++ {
		slot := gi*bs.P + src
		pos := bs.cur[slot]
		for w := 0; w < W; w++ {
			c := bs.cnt[w][gi]
			bs.cnt[w][gi] = pos
			pos += c
		}
		bs.cur[slot] = pos
	}
	buf := bs.buf
	par.Run(W, func(w int) {
		lo, hi := par.Block(n, W, w)
		c := bs.cnt[w]
		if wide {
			for i := lo; i < hi; i++ {
				gi := binOf128(m.hi[i], m.lo[i], k, mm)>>g - grpLo
				j := c[gi]
				c[gi] = j + 1
				buf.hi[j], buf.lo[j], buf.val[j] = m.hi[i], m.lo[i], m.val[i]
			}
			return
		}
		vals := m.val[lo:hi]
		for i, key := range m.lo[lo:hi] {
			gi := int(key>>gshift) - grpLo
			j := c[gi]
			c[gi] = j + 1
			buf.lo[j], buf.val[j] = key, vals[i]
		}
	})
	return nil
}

// seal is LocalSort (§3.4) over groups that are already in place: every
// slot is exactly full, so group gi is the one contiguous range
// [off[gi·P], off[(gi+1)·P]). Each LocalCC thread sorts, in place and in
// cache, every group whose first bin in the task's range lies in its bin
// range — a group may run on into the next thread's bins — and checks that
// each bin of it starts and ends at the offset the chunk histograms
// predict: a count moved between two bins of one group passes the
// receive's slot check and is caught here. Once every group is sorted, a
// thread's bin range is the one contiguous range of its bins' offsets, and
// seal returns a zero-copy view of each.
func (bs *binSink) seal(s int) ([]*groupSource, error) {
	st := bs.st
	t0 := time.Now()
	cuts := st.p.pt.ThreadCuts(s, st.rank)
	srcs := make([]*groupSource, len(cuts)-1)
	errs := make([]error, len(srcs))
	buf, g := bs.buf, bs.g
	wide := buf.wide()
	// groupEnd is the end of the task's part of the group holding bin b,
	// both relative to binLo.
	groupEnd := func(b int) int { return min(bs.nb, ((bs.binLo+b)>>g+1)<<g-bs.binLo) }
	par.Run(len(srcs), func(d int) {
		b0, b1 := cuts[d]-bs.binLo, cuts[d+1]-bs.binLo
		b := b0
		if b > 0 && (bs.binLo+b)>>g == (bs.binLo+b-1)>>g {
			b = groupEnd(b) // the previous thread sorts this group
		}
		for b < b1 && errs[d] == nil {
			end := groupEnd(b)
			lo, hi := bs.binOff[b], bs.binOff[end]
			if wide {
				bs.sorters[d].Sort128(buf.hi[lo:hi], buf.lo[lo:hi], buf.val[lo:hi], bs.shift+g)
			} else {
				bs.sorters[d].Sort64(buf.lo[lo:hi], buf.val[lo:hi], bs.shift+g)
			}
			errs[d] = bs.checkBins(b, end)
			b = end
		}
		st.tallySort(&bs.sorters[d])
		srcs[d] = &groupSource{buf: buf, pos: bs.binOff[b0], end: bs.binOff[b1]}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	d := time.Since(t0)
	st.rep.Steps.LocalSort += d
	st.stepSpan("LocalSort", t0, d)
	return srcs, nil
}

// tallySort adds the buckets a LocalSort sorter finished by their distinct
// keys, and those it handed back to a radix digit, since its last tally to
// the task's counters.
func (st *taskState) tallySort(s *radix.BinSorter) {
	fin, fb := s.Tally()
	if st.obs != nil {
		st.counter("localsort/distinct_finishes").Add(uint64(fin))
		st.counter("localsort/distinct_fallbacks").Add(uint64(fb))
	}
}

// checkBins checks that the bins [b0, b1) of one sorted group each fill
// exactly their predicted range.
func (bs *binSink) checkBins(b0, b1 int) error {
	return bs.st.checkBins(bs.buf, bs.binOff, 0, bs.binLo, bs.binLo+b0, bs.binLo+b1)
}

// checkBins checks that bins [b0, b1) of a sorted range of buf each fill
// exactly the range binOffsets predicts: bin b holds buf's tuples
// [binOff[b-binLo]-base, binOff[b-binLo+1]-base), so the first and last
// tuple of every non-empty bin must carry it, and the bins tile the range.
func (st *taskState) checkBins(buf *tupleBuf, binOff []uint64, base uint64, binLo, b0, b1 int) error {
	k, m := st.p.idx.Opts.K, st.p.idx.Opts.M
	for b := b0; b < b1; b++ {
		lo, hi := binOff[b-binLo]-base, binOff[b-binLo+1]-base
		if lo < hi && (buf.binAt(lo, k, m) != b || buf.binAt(hi-1, k, m) != b) {
			return fmt.Errorf("core: task %d: bin %d does not hold the %d tuples the index predicts — %w",
				st.rank, b, hi-lo, errStaleIndex)
		}
	}
	return nil
}

// binAt is the m-mer bin of tuple i.
func (b *tupleBuf) binAt(i uint64, k, m int) int {
	if b.hi != nil {
		return binOf128(b.hi[i], b.lo[i], k, m)
	}
	return int(b.lo[i] >> (2 * uint(k-m)))
}

// memBytes charges the receive buffer, the slot, cursor and bin tables and
// the group sorters' scratch.
func (bs *binSink) memBytes() int64 {
	tables := len(bs.off) + len(bs.cur) + len(bs.binOff) + len(bs.cnt)*len(bs.cnt[0])
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
// equal-key groups from a zero-copy view of a sorted range: the thread's
// part of the receive buffer or, on a spilling pass, each of the thread's
// buckets in turn, which bl loads when the one before is drained. The walk
// is a plain loop over concrete types; a group costs one direct call.
type groupSource struct {
	// buf[pos:end) is the sorted range.
	buf      *tupleBuf
	pos, end uint64

	// bl loads the next bucket (spilling passes); loadTime is what its
	// loads and sorts have taken, LocalSort work run inside the consumer.
	bl       *bucketLoader
	loadTime time.Duration

	err error
}

// next returns the next group: its key and the values of every tuple that
// carries it, in stream order. vals is valid until the following call and
// may be reordered in place by the caller. ok is false at the end of the
// stream or on a load error (reported by err).
func (g *groupSource) next() (hi, lo uint64, vals []uint32, ok bool) {
	for g.pos >= g.end {
		if g.bl == nil || g.err != nil || !g.bl.load(g) {
			return 0, 0, nil, false
		}
	}
	i, end := g.pos, g.end
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

// close marks a spilling source done, so the bucket sink can release its
// arena after the last pass. Idempotent; a no-op for in-RAM sources.
func (g *groupSource) close() {
	if g.bl != nil {
		g.bl.done()
		g.bl = nil
	}
}

// closeSources closes every source.
func closeSources(srcs []*groupSource) {
	for _, g := range srcs {
		g.close()
	}
}

// chargeSort moves loads, the bucket loads and sorts a consumer step ran
// inside it, from that step into LocalSort: the consumer started at t0 and
// ran d in all. It records the LocalSort span and returns the consumer's
// own start and duration.
func (st *taskState) chargeSort(t0 time.Time, d, loads time.Duration) (time.Time, time.Duration) {
	if loads == 0 {
		return t0, d
	}
	st.rep.Steps.LocalSort += loads
	st.stepSpan("LocalSort", t0, loads)
	return t0.Add(loads), d - loads
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
	// The threads load their buckets in parallel: the slowest one's loads
	// are what LocalSort adds to the pass.
	var loads time.Duration
	for _, g := range srcs {
		loads = max(loads, g.loadTime)
	}
	st.ccFinish(t0, loads, edgeCounts, st.ccRetry, st.ccHist)
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
// run Algorithm 1's re-verification rounds (Reverify) over the buffered
// edges, and charge the step, less loads, the bucket loads it ran, to
// LocalCC.
func (st *taskState) ccFinish(t0 time.Time, loads time.Duration, edgeCounts []uint64, retries [][]unionfind.Edge, hists [][]uint64) {
	for _, h := range hists {
		for f, c := range h {
			st.freqHist[f] += c
		}
	}
	rounds, attempts := st.dsu.Reverify(retries)
	iters := 1 + rounds
	st.unionAttempts += attempts
	if iters > st.rep.CCIters {
		st.rep.CCIters = iters
	}
	st.rep.Edges += edgesOf(edgeCounts)
	t0, d := st.chargeSort(t0, time.Since(t0), loads)
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
