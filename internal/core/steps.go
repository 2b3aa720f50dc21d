package core

import (
	"fmt"
	"time"

	"metaprep/internal/obsv"
	"metaprep/internal/par"
	"metaprep/internal/unionfind"
)

// steps.go implements the in-memory middle of the pipeline: the tuple
// exchange (§3.3), the two-stage local sort (§3.4) and the concurrent
// union–find over sorted runs (§3.5).

// genExchange runs pass s's KmerGen → exchange rounds. Each round fills
// kmerOut from one group of this task's chunks and ships it in one §3.3
// all-to-all; a spilling pass has as many rounds as its budget needs, an
// in-RAM pass exactly one. Exact rounds ship the index-predicted region
// counts; prefiltered rounds first compact the part-filled regions and ship
// what the gate kept. Each thread's chunk fetcher lives for the whole pass,
// so reads keep prefetching across round boundaries. Returns the last
// round's receive layout: the whole pass's when the pass is in RAM.
func (st *taskState) genExchange(s int) (recvLayout, error) {
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
		if err := st.exchange(s, gl, rl, sendCnt, r+1 == pl.rounds[s]); err != nil {
			return rl, err
		}
	}
	st.counter("kmergen/rounds").Add(uint64(pl.rounds[s]))
	return rl, nil
}

// exchange runs the custom all-to-all of §3.3: P stages of point-to-point
// messages, stage i pairing rank→rank+i, each shipping sendCnt[dst] tuples
// from dst's region of kmerOut. Each received region lands at its
// precomputed offset in kmerIn (or in the spill run builders). Counts are
// validated against the index's prediction: exactly, or — under the
// prefilter, which can only shrink them — as an upper bound, with the
// actual counts recorded in recvGot for sortLayoutFiltered. last marks the
// pass's final round, the only one that ends in a barrier.
func (st *taskState) exchange(s int, gl genLayout, rl recvLayout, sendCnt []uint64, last bool) error {
	t0 := time.Now()
	filtered := st.keep != nil
	var mismatch error
	st.t.AllToAll(tagTuples+s,
		func(dst int) (any, int) {
			cnt := sendCnt[dst]
			return st.out.msgFor(gl.dstOff[dst], cnt), int(cnt) * st.out.bytesPerTuple()
		},
		func(src int, payload any) {
			var got uint64
			if st.spill != nil {
				// Out-of-core path: land the message in the run builders
				// instead of a partition-sized kmerIn.
				got = st.spill.receive(payload.(tupleMsg))
			} else {
				got = st.in.receive(rl.srcOff[src], payload.(tupleMsg))
			}
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

// localSort runs the two stages of §3.4 on the received tuples: a parallel
// range partition of kmerIn into T thread partitions of kmerOut (each
// (source region, destination partition) cell writing through its own
// precomputed cursor), then T concurrent serial radix sorts, one partition
// per thread, with kmerIn as the out-of-place scratch.
func (st *taskState) localSort(s int, sl sortLayout) {
	T := st.p.cfg.Threads
	nr := len(sl.regionOff)

	t0 := time.Now()
	obs := st.obs
	// Stage 1: partition. Work units are the P×T source regions of kmerIn.
	// The bin→thread map is a flat lookup table over this task's bin range
	// (the same shape as KmerGen's owner table), filled by walking the cut
	// list once — cuts are contiguous and ordered, so each thread's bin
	// range [cuts[d], cuts[d+1]) is one contiguous fill.
	thrCuts := st.p.pt.ThreadCuts(s, st.rank)
	binLo := thrCuts[0]
	lut := make([]uint16, thrCuts[len(thrCuts)-1]-binLo)
	for d := 0; d < len(thrCuts)-1; d++ {
		for b := thrCuts[d] - binLo; b < thrCuts[d+1]-binLo; b++ {
			lut[b] = uint16(d)
		}
	}
	par.For(T, nr, func(r int) {
		cursor := make([]uint64, T)
		copy(cursor, sl.scatter[r*T:(r+1)*T])
		off, cnt := sl.regionOff[r], sl.regionCnt[r]
		in, out := st.in, st.out
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
		st.out.sortRange(sl.partOff[d], sl.partCnt[d], kr, st.in)
	})
	obs.RecordSpan(st.rank, obsv.TidSteps, "detail", "sort-radix", t1, time.Since(t1), nil)
	d := time.Since(t0)
	st.rep.Steps.LocalSort += d
	st.stepSpan("LocalSort", t0, d)
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

// localCC runs §3.5: every thread walks its sorted partition, turns each
// run of an equal k-mer into star edges (first read — every other read) if
// the run's length passes the frequency filter, and feeds them to the
// shared lock-free union–find with Algorithm 1's buffered re-verification.
func (st *taskState) localCC(sl sortLayout) {
	T := st.p.cfg.Threads
	filter := st.p.cfg.Filter
	t0 := time.Now()
	edgeCounts := make([]uint64, T)
	retries := make([][]unionfind.Edge, T)
	hists := make([][]uint64, T)
	par.Run(T, func(d int) {
		var retry []unionfind.Edge
		hist := make([]uint64, freqHistSize)
		st.out.forRuns(sl.partOff[d], sl.partCnt[d], func(start, end uint64) {
			f := uint32(end - start)
			// The frequency spectrum falls out of the sorted runs for free;
			// it is what a user consults to pick the §4.4 filter bounds.
			if f < freqHistSize {
				hist[f]++
			} else {
				hist[freqHistSize-1]++
			}
			if f < 2 || !filter.Keep(f) {
				return
			}
			v0 := st.out.val[start]
			for i := start + 1; i < end; i++ {
				vi := st.out.val[i]
				edgeCounts[d]++
				if st.dsu.Connect(v0, vi) {
					retry = append(retry, unionfind.Edge{U: v0, V: vi})
				}
			}
		})
		retries[d] = retry
		hists[d] = hist
	})
	st.ccFinish(t0, edgeCounts, retries, hists)
}

// ccFinish is the tail of LocalCC shared by the in-RAM and spill paths:
// fold the per-thread frequency histograms, run Algorithm 1's outer
// re-verification loop over the buffered edges, and charge the step.
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
