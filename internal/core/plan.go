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

	// bufTuples[p] is the capacity of task p's kmerOut: its two generation
	// slots, end to end.
	bufTuples []uint64
	// recvTuples[p] is the capacity of task p's in-RAM receive buffer: the
	// most tuples it receives in any pass (0 when spilling, where the
	// bucket sink receives).
	recvTuples []uint64

	// spill is true when the out-of-core LocalSort path is active: a
	// SpillBudgetBytes cap is set and at least one (pass, rank) would
	// otherwise receive a partition larger than the cap. The decision is
	// global and uniform — every rank and pass takes the same path — so the
	// per-pass schedules of all tasks stay identical.
	spill bool
	// budgetTuples is SpillBudgetBytes in tuples when spilling: the
	// generation buffer takes a quarter of it, the bucket sink the rest
	// (spill.go).
	budgetTuples uint64

	// roundCuts[s][rank] cuts task rank's chunk list into the KmerGen →
	// exchange rounds of pass s: round r enumerates
	// taskChunks[rank][cuts[r]:cuts[r+1]]. A round groups contiguous chunks
	// whose pass-range tuples fit one generation slot (see groupChunks).
	roundCuts [][][]int
	// rounds[s] is the round count every rank runs in pass s: the maximum
	// over ranks, so a rank with fewer chunk groups sends empty messages in
	// its trailing rounds and every all-to-all stays matched.
	rounds []int
	// slotTuples[p] sizes task p's two generation slots: round r fills slot
	// r%2, so round r+1 generates while peers may still be copying round
	// r's messages out of the other slot. Each slot holds its rounds'
	// largest tuple count — at most slotCap (budget/8 spilling, 1/16 of the
	// receive buffer in RAM), unless a round's minimum chunks alone exceed
	// it (the chunk floor). A rank with one round per pass needs no second
	// slot.
	slotTuples [][2]uint64

	// heap samples the run's heap at step boundaries (nil without a
	// collector) — the one part of a plan that is not a static schedule.
	heap *heapWatch
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
	p := &plan{cfg: cfg, idx: idx, pt: pt, heap: newHeapWatch(cfg.Obs)}

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

	// chunkGen[s][ci] is chunk ci's pass-s tuple count, what groupChunks
	// packs into rounds.
	chunkGen := make([][]uint64, cfg.Passes)
	for s := range chunkGen {
		plo, phi := pt.PassRange(s)
		chunkGen[s] = make([]uint64, c)
		for ci := range chunkGen[s] {
			chunkGen[s][ci] = idx.Chunks[ci].Hist.RangeCount(plo, phi)
		}
	}
	maxRecv := make([]uint64, cfg.Tasks)
	var worstRecv uint64
	for rank := 0; rank < cfg.Tasks; rank++ {
		for s := 0; s < cfg.Passes; s++ {
			maxRecv[rank] = max(maxRecv[rank], p.passRecv(s, rank))
		}
		worstRecv = max(worstRecv, maxRecv[rank])
	}
	if b := cfg.SpillBudgetBytes; b > 0 && worstRecv*p.bytesPerTuple() > uint64(b) {
		p.spill = true
		p.budgetTuples = uint64(b) / p.bytesPerTuple()
	}
	p.bufTuples = make([]uint64, cfg.Tasks)
	p.recvTuples = make([]uint64, cfg.Tasks)
	p.slotTuples = make([][2]uint64, cfg.Tasks)
	p.roundCuts = make([][][]int, cfg.Passes)
	p.rounds = make([]int, cfg.Passes)
	for s := range p.roundCuts {
		p.roundCuts[s] = make([][]int, cfg.Tasks)
		p.rounds[s] = 1
		for rank := range p.roundCuts[s] {
			// A spilling round fills at most budget/8, so both slots share
			// the generation buffer's quarter of the budget. An in-RAM
			// round fills at most 1/16 of the receive buffer, so both slots
			// add at most 1/8 to it, and holds at least T chunks so that no
			// KmerGen thread idles while the task has chunks left.
			slotCap, minChunks := p.budgetTuples/8, 1
			if !p.spill {
				p.recvTuples[rank] = maxRecv[rank]
				slotCap, minChunks = maxRecv[rank]/16, cfg.Threads
			}
			cuts, most := p.groupChunks(rank, chunkGen[s], slotCap, minChunks)
			p.roundCuts[s][rank] = cuts
			p.rounds[s] = max(p.rounds[s], len(cuts)-1)
			slots := &p.slotTuples[rank]
			slots[0], slots[1] = max(slots[0], most[0]), max(slots[1], most[1])
			p.bufTuples[rank] = slots[0] + slots[1]
		}
	}
	return p, nil
}

// groupChunks cuts task rank's chunk list into the rounds of a pass:
// contiguous groups whose pass-range tuples (chunkGen, exact from the chunk
// histograms) sum to at most slotCap, one generation slot. A round closes
// only once it holds minChunks chunks, so a round whose first minChunks
// chunks alone exceed slotCap is a round of exactly those — the chunk
// floor, the one case where a slot outgrows its cap. Returns the cut
// positions and the largest tuple count of the even and the odd rounds.
func (p *plan) groupChunks(rank int, chunkGen []uint64, slotCap uint64, minChunks int) (cuts []int, most [2]uint64) {
	cuts = []int{0}
	var sum uint64
	for i, ci := range p.taskChunks[rank] {
		n := chunkGen[ci]
		if i-cuts[len(cuts)-1] >= minChunks && sum+n > slotCap {
			cuts = append(cuts, i)
			sum = 0
		}
		sum += n
		r := len(cuts) - 1
		most[r%2] = max(most[r%2], sum)
	}
	if n := len(p.taskChunks[rank]); n > cuts[len(cuts)-1] {
		cuts = append(cuts, n)
	}
	return cuts, most
}

// roundChunks returns the chunks thread t of task rank enumerates in round
// r of pass s: the thread's block of the round's chunk group, empty once
// the rank has run out of groups.
func (p *plan) roundChunks(s, rank, r, t int) []int {
	cuts := p.roundCuts[s][rank]
	if r+1 >= len(cuts) {
		return nil
	}
	chunks := p.taskChunks[rank][cuts[r]:cuts[r+1]]
	lo, hi := par.Block(len(chunks), p.cfg.Threads, t)
	return chunks[lo:hi]
}

// passChunks is thread t's chunk list over every round of pass s, in round
// order: what its chunk fetcher streams, so the prefetcher keeps reading
// ahead across round boundaries.
func (p *plan) passChunks(s, rank, t int) []int {
	var chunks []int
	for r := 0; r+1 < len(p.roundCuts[s][rank]); r++ {
		chunks = append(chunks, p.roundChunks(s, rank, r, t)...)
	}
	return chunks
}

// passRecv is the number of tuples task rank receives over all of pass s.
func (p *plan) passRecv(s, rank int) uint64 {
	lo, hi := p.pt.TaskRange(s, rank)
	return index.RangeCount64(p.idx.MerHist, lo, hi)
}

// bytesPerTuple is the in-memory and on-wire tuple size: the paper's 12
// bytes for k ≤ 31, 20 for the 128-bit key path.
func (p *plan) bytesPerTuple() uint64 {
	if p.use64() {
		return 12
	}
	return 20
}

// use64 reports whether the 64-bit k-mer path applies.
func (p *plan) use64() bool { return p.idx.Opts.Use64() }

// genLayout describes task rank's kmerOut buffer in round r of pass s:
// tuples are grouped by destination task (so a destination's tuples ship as
// one message), and within each destination region by source thread (so
// each thread writes its own precomputed sub-region without
// synchronization, §3.2.2). Round r lays out in generation slot r%2.
type genLayout struct {
	// dstOff[dst] / dstCnt[dst]: each destination region within kmerOut.
	dstOff, dstCnt []uint64
	// cursor[dst*T+t]: where thread t starts writing tuples bound for dst.
	cursor []uint64
	// total is the number of tuples task rank generates this round.
	total uint64
}

func (p *plan) genLayout(s, rank, r int) genLayout {
	P, T := p.cfg.Tasks, p.cfg.Threads
	idx := p.idx
	// count[dst*T+t] = tuples thread t generates for destination dst.
	count := make([]uint64, P*T)
	for t := 0; t < T; t++ {
		for _, ci := range p.roundChunks(s, rank, r, t) {
			hist := &idx.Chunks[ci].Hist
			for dst := 0; dst < P; dst++ {
				lo, hi := p.pt.TaskRange(s, dst)
				count[dst*T+t] += hist.RangeCount(lo, hi)
			}
		}
	}
	l := genLayout{
		dstOff: make([]uint64, P),
		dstCnt: make([]uint64, P),
		cursor: make([]uint64, P*T),
	}
	base := uint64(r%2) * p.slotTuples[rank][0]
	off := base
	for dst := 0; dst < P; dst++ {
		l.dstOff[dst] = off
		for t := 0; t < T; t++ {
			l.cursor[dst*T+t] = off
			off += count[dst*T+t]
			l.dstCnt[dst] += count[dst*T+t]
		}
	}
	l.total = off - base
	return l
}
