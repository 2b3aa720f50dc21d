package core

import (
	"metaprep/internal/index"
	"metaprep/internal/par"
)

// plan is the static schedule derived from the index tables: which task and
// thread owns which FASTQ chunks, how the m-mer bin space is split into
// pass/task/thread key ranges, and — per pass and rank — every buffer count
// and offset the pipeline steps need to run without synchronization
// (§3.1–§3.4). Everything in a plan is derived deterministically from the
// index, so all tasks compute identical plans.
type plan struct {
	cfg Config
	idx *index.Index
	pt  *index.Partition

	// taskChunks[p] lists the chunk indices task p owns (a contiguous
	// block, so each task reads a contiguous region of the inputs).
	taskChunks [][]int
	// threadChunks[p][t] lists the chunks thread t of task p owns.
	threadChunks [][][]int

	// bufTuples[p] is the tuple capacity task p must allocate for each of
	// its two buffers (kmerOut and kmerIn): the maximum over passes of
	// tuples generated and tuples received, because kmerOut doubles as the
	// sorted output buffer (§3.4) and kmerIn as radix-sort scratch.
	// In spill mode only the generation term counts — received tuples land
	// in the bounded run builders instead of a kmerIn-sized buffer.
	bufTuples []uint64

	// spill is true when the out-of-core LocalSort path is active: a
	// SpillBudgetBytes cap is set and at least one (pass, rank) would
	// otherwise receive a partition larger than the cap. The decision is
	// global and uniform — every rank and pass takes the same path — so the
	// per-pass schedules of all tasks stay identical.
	spill bool
	// runTuples is the spill run size: the budget covers three circulating
	// run builders (two in the receive↔sort-write handoff ring plus the
	// radix scratch), so each holds budget/(3·bytesPerTuple) tuples.
	runTuples uint64
}

func newPlan(cfg Config) (*plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	idx := cfg.Index
	pt, err := index.NewPartition(idx.MerHist, cfg.Passes, cfg.Tasks, cfg.Threads)
	if err != nil {
		return nil, err
	}
	p := &plan{cfg: cfg, idx: idx, pt: pt}

	c := len(idx.Chunks)
	p.taskChunks = make([][]int, cfg.Tasks)
	p.threadChunks = make([][][]int, cfg.Tasks)
	for rank := 0; rank < cfg.Tasks; rank++ {
		lo, hi := par.Block(c, cfg.Tasks, rank)
		chunks := make([]int, 0, hi-lo)
		for ci := lo; ci < hi; ci++ {
			chunks = append(chunks, ci)
		}
		p.taskChunks[rank] = chunks
		p.threadChunks[rank] = make([][]int, cfg.Threads)
		for t := 0; t < cfg.Threads; t++ {
			tlo, thi := par.Block(len(chunks), cfg.Threads, t)
			p.threadChunks[rank][t] = chunks[tlo:thi]
		}
	}

	maxGen := make([]uint64, cfg.Tasks)
	maxRecv := make([]uint64, cfg.Tasks)
	var worstRecv uint64
	for rank := 0; rank < cfg.Tasks; rank++ {
		for s := 0; s < cfg.Passes; s++ {
			var gen uint64
			plo, phi := pt.PassRange(s)
			for _, ci := range p.taskChunks[rank] {
				gen += index.RangeCount(idx.Chunks[ci].Hist, plo, phi)
			}
			if gen > maxGen[rank] {
				maxGen[rank] = gen
			}
			tlo, thi := pt.TaskRange(s, rank)
			if recv := index.RangeCount64(idx.MerHist, tlo, thi); recv > maxRecv[rank] {
				maxRecv[rank] = recv
			}
		}
		if maxRecv[rank] > worstRecv {
			worstRecv = maxRecv[rank]
		}
	}
	if b := cfg.SpillBudgetBytes; b > 0 && worstRecv*p.bytesPerTuple() > uint64(b) {
		p.spill = true
		p.runTuples = uint64(b) / (3 * p.bytesPerTuple())
		if p.runTuples < 1 {
			p.runTuples = 1
		}
	}
	p.bufTuples = make([]uint64, cfg.Tasks)
	for rank := 0; rank < cfg.Tasks; rank++ {
		p.bufTuples[rank] = maxGen[rank]
		if !p.spill && maxRecv[rank] > maxGen[rank] {
			p.bufTuples[rank] = maxRecv[rank]
		}
	}
	return p, nil
}

// bytesPerTuple is the in-memory and on-wire tuple size: the paper's 12
// bytes for k ≤ 31, 20 for the 128-bit key path.
func (p *plan) bytesPerTuple() uint64 {
	if p.use64() {
		return 12
	}
	return 20
}

// spillRuns returns how many runs a pass with recvTotal received tuples
// spills.
func (p *plan) spillRuns(recvTotal uint64) int {
	if recvTotal == 0 {
		return 0
	}
	return int((recvTotal + p.runTuples - 1) / p.runTuples)
}

// spillBlockTuples sizes the encode blocks of a pass's spill file — the unit
// of merge read-ahead. During the merge every one of T threads holds up to
// two decoded blocks per run (one draining, one prefetching), so the block
// size is chosen to keep T·runs·2·block·bytesPerTuple within half the
// budget, clamped to [16, 4096] tuples and to the run size.
func (p *plan) spillBlockTuples(runs int) int {
	if runs < 1 {
		runs = 1
	}
	b := uint64(p.cfg.SpillBudgetBytes) /
		(4 * uint64(p.cfg.Threads) * uint64(runs) * p.bytesPerTuple())
	if b < 16 {
		b = 16
	}
	if b > 4096 {
		b = 4096
	}
	if b > p.runTuples {
		b = p.runTuples
	}
	return int(b)
}

// use64 reports whether the 64-bit k-mer path applies.
func (p *plan) use64() bool { return p.idx.Opts.Use64() }

// genLayout describes task rank's kmerOut buffer in pass s: tuples are
// grouped by destination task (so a destination's tuples ship as one
// message), and within each destination region by source thread (so each
// thread writes its own precomputed sub-region without synchronization,
// §3.2.2).
type genLayout struct {
	// dstOff[dst] / dstCnt[dst]: each destination region within kmerOut.
	dstOff, dstCnt []uint64
	// cursor[dst*T+t]: where thread t starts writing tuples bound for dst.
	cursor []uint64
	// total is the number of tuples task rank generates this pass.
	total uint64
}

func (p *plan) genLayout(s, rank int) genLayout {
	P, T := p.cfg.Tasks, p.cfg.Threads
	idx := p.idx
	// count[dst*T+t] = tuples thread t generates for destination dst.
	count := make([]uint64, P*T)
	for t := 0; t < T; t++ {
		for _, ci := range p.threadChunks[rank][t] {
			hist := idx.Chunks[ci].Hist
			for dst := 0; dst < P; dst++ {
				lo, hi := p.pt.TaskRange(s, dst)
				count[dst*T+t] += index.RangeCount(hist, lo, hi)
			}
		}
	}
	l := genLayout{
		dstOff: make([]uint64, P),
		dstCnt: make([]uint64, P),
		cursor: make([]uint64, P*T),
	}
	var off uint64
	for dst := 0; dst < P; dst++ {
		l.dstOff[dst] = off
		for t := 0; t < T; t++ {
			l.cursor[dst*T+t] = off
			off += count[dst*T+t]
			l.dstCnt[dst] += count[dst*T+t]
		}
	}
	l.total = off
	return l
}

// recvLayout describes task rank's kmerIn buffer in pass s: one region per
// source task, in rank order, sized from the source's chunk histograms
// (§3.3: "each task also calculates the number of tuples to be received
// from other tasks and the corresponding receive offsets in advance").
// Within a source region, tuples arrive ordered by the source's threads.
type recvLayout struct {
	srcOff, srcCnt []uint64
	// threadCnt[src*T+t] splits srcCnt by the source's thread t, needed to
	// locate scatter work regions for LocalSort.
	threadCnt []uint64
	total     uint64
}

func (p *plan) recvLayout(s, rank int) recvLayout {
	P, T := p.cfg.Tasks, p.cfg.Threads
	lo, hi := p.pt.TaskRange(s, rank)
	l := recvLayout{
		srcOff:    make([]uint64, P),
		srcCnt:    make([]uint64, P),
		threadCnt: make([]uint64, P*T),
	}
	var off uint64
	for src := 0; src < P; src++ {
		l.srcOff[src] = off
		for t := 0; t < T; t++ {
			var cnt uint64
			for _, ci := range p.threadChunks[src][t] {
				cnt += index.RangeCount(p.idx.Chunks[ci].Hist, lo, hi)
			}
			l.threadCnt[src*T+t] = cnt
			l.srcCnt[src] += cnt
			off += cnt
		}
	}
	l.total = off
	return l
}

// sortLayout describes the LocalSort range-partitioning of task rank's
// received tuples in pass s into T thread partitions (§3.4). The scatter's
// work units are the P×T (source task, source thread) regions of kmerIn;
// each (region, destination partition) pair gets an exclusive, precomputed
// slice of the output buffer, so T threads scatter concurrently with no
// synchronization.
type sortLayout struct {
	// partOff/partCnt: the T thread partitions of the sorted buffer.
	partOff, partCnt []uint64
	// partBinLo/partBinHi: each partition's m-mer bin range [lo, hi) — the
	// key range the partitioning has already fixed, which the key-range-
	// aware radix sort uses to skip passes over the pinned high bits.
	partBinLo, partBinHi []int
	// regionOff[r]: where region r (= src*T + srcThread) starts in kmerIn.
	regionOff []uint64
	// regionCnt[r]: tuples in region r.
	regionCnt []uint64
	// scatter[r*T+d]: write cursor for tuples of region r bound for
	// partition d.
	scatter []uint64
}

func (p *plan) sortLayout(s, rank int, rl recvLayout) sortLayout {
	P, T := p.cfg.Tasks, p.cfg.Threads
	idx := p.idx
	// The scatter's work units are the P×T (source task, source thread)
	// sub-regions of kmerIn: the precomputed-offset KmerGen keeps each sender
	// thread's tuples contiguous inside a message.
	nr := P * T
	l := sortLayout{
		partOff:   make([]uint64, T),
		partCnt:   make([]uint64, T),
		partBinLo: make([]int, T),
		partBinHi: make([]int, T),
		regionOff: make([]uint64, nr),
		regionCnt: make([]uint64, nr),
		scatter:   make([]uint64, nr*T),
	}
	for d := 0; d < T; d++ {
		l.partBinLo[d], l.partBinHi[d] = p.pt.ThreadRange(s, rank, d)
	}
	// cnt[r*T+d] = tuples of region r that fall in thread partition d.
	cnt := make([]uint64, nr*T)
	for src := 0; src < P; src++ {
		for t := 0; t < T; t++ {
			r := src*T + t
			for _, ci := range p.threadChunks[src][t] {
				hist := idx.Chunks[ci].Hist
				for d := 0; d < T; d++ {
					dlo, dhi := p.pt.ThreadRange(s, rank, d)
					cnt[r*T+d] += index.RangeCount(hist, dlo, dhi)
				}
			}
		}
	}
	// Region extents in kmerIn follow the receive layout.
	var off uint64
	for r := 0; r < nr; r++ {
		l.regionOff[r] = off
		l.regionCnt[r] = rl.threadCnt[r]
		off += rl.threadCnt[r]
	}
	// Partition extents and scatter cursors: partition-major, then region
	// order (matching the order regions are scanned).
	var pOff uint64
	for d := 0; d < T; d++ {
		l.partOff[d] = pOff
		for r := 0; r < nr; r++ {
			l.scatter[r*T+d] = pOff
			pOff += cnt[r*T+d]
			l.partCnt[d] += cnt[r*T+d]
		}
	}
	return l
}
