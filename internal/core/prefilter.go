package core

import (
	"fmt"
	"time"

	"metaprep/internal/fastq"
	"metaprep/internal/kmer"
	"metaprep/internal/obsv"
	"metaprep/internal/par"
	"metaprep/internal/sketch"
)

// prefilter.go implements the opt-in two-pass probabilistic singleton
// prefilter (Config.Prefilter). Pass 1 is an enumeration-only scan of this
// rank's FASTQ chunks — the same overlapped chunk-prefetch path KmerGen
// uses, minus tuple writes — inserting every canonical k-mer into a
// blocked-Bloom repeat ladder (internal/sketch). The ranks then combine
// their ladders exactly (the max-plus convolution over per-bit level
// sequences: Σ_r min(n_r, L) ≥ L ⟺ Σ_r n_r ≥ L) and broadcast the top
// level — the global "seen ≥ MinCount times" bitmap — to every rank.
//
// Pass 2 is the normal pipeline with one change: KmerGen consults the
// bitmap and skips tuple generation for k-mers below the threshold, so
// dropped k-mers never cross the all-to-all, never enter LocalSort, and
// never spill. Because the filter's errors are one-sided (false positives
// keep extra k-mers, never drop repeated ones), MinCount 2 is lossless: a
// dropped k-mer is a true singleton, whose run of length 1 produces no
// edge in the exact pipeline either, so component labels are identical.
//
// The drop rate makes the per-pass tuple counts dynamic, which ripples
// through the offset machinery the static plan otherwise precomputes:
//
//   - KmerGen threads keep their exclusive per-(dst, thread) sub-regions
//     but fill only a prefix of each; the end cursors are recorded in
//     genKept instead of being validated against the index's counts.
//   - compactGen closes the gaps in each destination region in place (a
//     forward copy — writes trail reads), and the one §3.3 exchange ships
//     the compacted counts.
//   - The receiver's (bin, source) slots, sized from the index, fill only
//     a prefix each; LocalSort closes those gaps bin by bin before sorting
//     the bin (binSink.seal). A spill run builder packs messages and never
//     sees a gap.

// Prefilter message tags, below tagDelta's band (see pipeline.go).
const (
	tagPrefilter      = 3 // sub-range ladder all-to-all (rank r's slice of dst's owned words)
	tagPrefilterBcast = 4 // keep-bitmap broadcast (rank 0 → every rank)
	tagPrefilterKeep  = 5 // merged keep sub-range gather (every rank → rank 0)
)

// buildPrefilter runs pass 1: scan, combine, broadcast. On return st.keep
// holds the global keep bitmap every emit consults. Scan I/O and insert
// time are charged to KmerGen-I/O and KmerGen, the combine to KmerGen-Comm
// — the prefilter's cost is part of the front half it shrinks.
func (st *taskState) buildPrefilter() error {
	cfg := st.p.cfg
	P, T := cfg.Tasks, cfg.Threads
	build0 := time.Now()
	f := sketch.NewRepeatFilter(st.p.idx.TotalKmers, cfg.Prefilter.BitsPerKmer,
		cfg.Prefilter.minCount())

	ioTimes := make([]time.Duration, T)
	scanTimes := make([]time.Duration, T)
	errs := make([]error, T)
	par.Run(T, func(t int) {
		errs[t] = st.prefilterScanThread(t, f, &ioTimes[t], &scanTimes[t])
	})
	for _, err := range errs {
		if err != nil {
			// Peers that scanned clean may already be blocked in the
			// combine's sends and receives; fail the world so they wake
			// before this body returns.
			st.t.Abort()
			return err
		}
	}
	ioDur, scanDur := maxOfDur(ioTimes), maxOfDur(scanTimes)
	st.rep.Steps.KmerGenIO += ioDur
	st.rep.Steps.KmerGen += scanDur
	st.stepSpan("KmerGen-I/O", build0, ioDur)
	st.stepSpan("KmerGen", build0.Add(ioDur), scanDur)
	st.obs.RecordSpan(st.rank, obsv.TidSteps, "detail", "prefilter-scan",
		build0, time.Since(build0), nil)

	// Combine by owned sub-range: the ladder's word space [0, nwords) is
	// split into P contiguous ranges, and the all-to-all ships each rank
	// only the slice of every peer's ladder covering the words it owns —
	// L·filterBytes/P per peer instead of the full ladder, so per-rank
	// combine wire volume stays ~filterBytes as P grows rather than the
	// old (P−1)·filterBytes inbound at rank 0. Each owner MergeRanges its
	// slice of all P ladders (bit-identical to a full-ladder fold — the
	// convolution is per-word), then rank 0 gathers the merged keep
	// sub-ranges (filterBytes/L/P each) and broadcasts the assembled
	// bitmap. Zero-copy safety: a rank only mutates words in its own
	// range, while every slice it sent covers other ranks' ranges.
	c0 := time.Now()
	f.Normalize()
	nw := f.NWords()
	cut := func(r int) uint64 { return nw * uint64(r) / uint64(P) }
	myLo, myHi := cut(st.rank), cut(st.rank+1)
	if P > 1 {
		lv := f.Levels()
		st.t.AllToAll(tagPrefilter,
			func(dst int) (any, int) {
				lo, hi := cut(dst), cut(dst+1)
				sub := make([][]uint64, len(lv))
				for i := range lv {
					sub[i] = lv[i][lo:hi]
				}
				return sub, int(hi-lo) * 8 * len(lv)
			},
			func(src int, payload any) {
				if src == st.rank {
					return // stage 0 self-exchange: already our own words
				}
				f.MergeRange(payload.([][]uint64), myLo, myHi)
			},
		)
	}
	keepWords := f.Keep().Words()
	var words []uint64
	if st.rank == 0 {
		for src := 1; src < P; src++ {
			lo, hi := cut(src), cut(src+1)
			copy(keepWords[lo:hi], st.t.Recv(src, tagPrefilterKeep).([]uint64))
		}
		words = keepWords
	} else {
		st.t.Send(0, tagPrefilterKeep, keepWords[myLo:myHi], int(myHi-myLo)*8)
	}
	// Non-root ranks receive first, then relay the stored payload to their
	// subtree — the send closure must serve the received words.
	st.t.TreeBroadcast(tagPrefilterBcast,
		func(dst int) (any, int) { return words, len(words) * 8 },
		func(src int, payload any) { words = payload.([]uint64) },
	)
	keep := sketch.BloomFromWords(words, f.Probes())
	d := time.Since(c0) + st.t.TakeCommTime()
	st.rep.Steps.KmerGenComm += d
	st.stepSpan("KmerGen-Comm", c0, d)
	st.obs.RecordSpan(st.rank, obsv.TidSteps, "detail", "prefilter-combine",
		c0, time.Since(c0), nil)

	st.keep = keep
	st.filterBytes = f.SizeBytes()
	if st.obs != nil {
		st.counter("prefilter/build_us").Add(uint64(time.Since(build0).Microseconds()))
		st.counter("prefilter/filter_bytes").Add(uint64(f.SizeBytes()))
		// Landed(0)−Landed(1) estimates this rank's local singletons; both
		// counts are FP-deflated, so clamp the pathological tiny-filter case.
		if d0, d1 := f.Landed(0), f.Landed(1); d0 > d1 {
			st.counter("prefilter/kmers_dropped").Add(d0 - d1)
		}
		st.counter("prefilter/est_fp_rate").Add(uint64(keep.EstFPRate() * 1e6))
	}
	if cfg.Log != nil && st.rank == 0 {
		cfg.Log.InfoContext(st.ctx, "prefilter built",
			"bits_per_kmer", cfg.Prefilter.BitsPerKmer,
			"min_count", cfg.Prefilter.minCount(),
			"filter_bytes", f.SizeBytes(),
			"est_fp_rate", keep.EstFPRate(),
			"build", time.Since(build0))
	}
	return nil
}

// prefilterScanThread is one worker of the pass-1 scan: the KmerGen chunk
// loop (prefetched reads, in-place parsing, canonical enumeration) with
// ladder inserts in place of tuple writes. Every k-mer is inserted
// regardless of its m-mer bin — the filter is global, not per pass.
func (st *taskState) prefilterScanThread(t int, f *sketch.RepeatFilter,
	ioTime, scanTime *time.Duration) error {

	cfg := st.p.cfg
	idx := st.p.idx
	k := idx.Opts.K
	var scanner fastq.ChunkScanner
	fetch := newChunkFetcher(st.p.threadChunks[st.rank][t], idx, st.files,
		cfg.prefetchDepth(), st.chunkBufs[t], st.obs, st.rank, obsv.TidPrefetch+t)
	defer fetch.close()
	for {
		if err := st.ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		ci, buf, err := fetch.next()
		*ioTime += time.Since(t0)
		if err != nil {
			return err
		}
		if buf == nil {
			break
		}
		c := &idx.Chunks[ci]
		t0 = time.Now()
		scanner.Reset(buf)
		for n := int32(0); n < c.Records; n++ {
			rec, err := scanner.Next()
			if err != nil {
				return fmt.Errorf("core: chunk %d record %d: %w", ci, n, err)
			}
			kmer.ForEachKey(rec.Seq, k, func(_ int, km kmer.Kmer128) {
				h1, h2 := sketch.Hash(km.Hi, km.Lo)
				f.Insert(h1, h2)
			})
		}
		*scanTime += time.Since(t0)
		fetch.release(buf)
	}
	return nil
}

// compactGen closes the gaps the prefilter left in kmerOut: within each
// destination region, every thread's kept prefix slides left so the
// region's tuples are contiguous from dstOff. The copies move tuples
// strictly leftward (the write cursor never passes the read cursor), so
// the in-place forward copy is safe. Returns the actual per-destination
// counts. Charged to KmerGen — it is the tail of tuple generation.
func (st *taskState) compactGen(gl genLayout) []uint64 {
	t0 := time.Now()
	T := st.p.cfg.Threads
	act := make([]uint64, len(gl.dstOff))
	for dst := range gl.dstOff {
		w := gl.dstOff[dst]
		for t := 0; t < T; t++ {
			lo := gl.cursor[dst*T+t]
			n := st.genKept[dst*T+t] - lo
			if n > 0 && w != lo {
				st.out.copyRange(w, st.out, lo, n)
			}
			w += n
		}
		act[dst] = w - gl.dstOff[dst]
	}
	d := time.Since(t0)
	st.rep.Steps.KmerGen += d
	st.stepSpan("KmerGen", t0, d)
	return act
}
