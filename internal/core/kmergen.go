package core

import (
	"fmt"
	"os"
	"time"

	"metaprep/internal/fastq"
	"metaprep/internal/index"
	"metaprep/internal/kmer"
	"metaprep/internal/obsv"
	"metaprep/internal/par"
)

// kmergen.go implements the KmerGen step (§3.2): each thread reads its
// FASTQ chunks and enumerates (canonical k-mer, read ID) tuples for the
// current pass directly into its precomputed sub-regions of the task's
// kmerOut buffer — no locks, no atomics.
//
// Each read runs one loop per key width (k ≤ 31 and k > 31) in three
// stages, with no call per k-mer and no branch on the pass test:
// kmer.Roller rolls a block of up to BlockKeys canonical keys into the
// thread's block; the block is compacted in place to the keys whose m-mer
// bin lies in the pass's range (keys[n] = key; n += InRange(bin), so a
// pass that keeps half its k-mers mispredicts nothing); and the survivors
// are scattered through the bin → owner table into their destinations'
// regions of kmerOut's columns, each store bounds-checked against the
// thread's region.
//
// Chunk input is overlapped with enumeration: each thread owns a small ring
// of chunk buffers and an asynchronous reader goroutine that fills buffer
// i+1 while the thread parses buffer i (depth controlled by
// Config.PrefetchChunks). The fetcher lives for the whole pass and streams
// the thread's chunks of every round, so a spilling pass's round
// boundaries do not interrupt the read-ahead. Records are parsed
// in place by fastq.ChunkScanner — ID/Seq/Qual are sub-slices of the
// resident chunk buffer, so the hot loop performs no per-record copies.
// KmerGen-I/O therefore accounts only the *non-overlapped* read time: the
// wait for a chunk that the prefetcher has not finished yet (the serial
// single-CPU path still charges full read time).

// binOwners returns pass s's bin → destination-task table: owner[bin-passLo]
// is the task owning each bin of the pass's range — a flat lookup so the
// per-k-mer cost is one array read rather than a binary search. Built once
// per pass and shared by its rounds.
func (p *plan) binOwners(s int) []uint16 {
	passLo, passHi := p.pt.PassRange(s)
	owner := make([]uint16, passHi-passLo)
	cuts := p.pt.TaskCuts(s)
	for dst := 0; dst < p.cfg.Tasks; dst++ {
		for b := cuts[dst]; b < cuts[dst+1]; b++ {
			owner[b-passLo] = uint16(dst)
		}
	}
	return owner
}

// kmerGen runs round r of pass s's tuple enumeration on this task, each
// thread pulling its round-r chunks from its pass-long fetcher. On return,
// kmerOut holds gl.total tuples grouped by destination task.
func (st *taskState) kmerGen(s, r int, gl genLayout, owner []uint16, fetchers []*chunkFetcher) error {
	cfg := st.p.cfg
	T := cfg.Threads
	passLo, passHi := st.p.pt.PassRange(s)

	ioTimes := make([]time.Duration, T)
	genTimes := make([]time.Duration, T)
	errs := make([]error, T)
	phaseStart := time.Now()
	par.Run(T, func(t int) {
		errs[t] = st.kmerGenThread(s, t, st.p.roundChunks(s, st.rank, r, t), fetchers[t],
			gl, owner, passLo, passHi, &ioTimes[t], &genTimes[t])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// The step charge is the critical-path (max-over-threads) time, exactly
	// what the step spans report: I/O first, then enumeration, chained so the
	// two spans tile the step track without overlapping.
	ioDur, genDur := maxOfDur(ioTimes), maxOfDur(genTimes)
	st.rep.Steps.KmerGenIO += ioDur
	st.rep.Steps.KmerGen += genDur
	st.rep.Tuples += gl.total
	st.stepSpan("KmerGen-I/O", phaseStart, ioDur)
	st.stepSpan("KmerGen", phaseStart.Add(ioDur), genDur)
	st.counter("kmergen/kmers").Add(gl.total)
	return nil
}

func (st *taskState) kmerGenThread(s, t int, chunks []int, fetch *chunkFetcher, gl genLayout,
	owner []uint16, passLo, passHi int, ioTime, genTime *time.Duration) error {

	cfg := st.p.cfg
	idx := st.p.idx
	T := cfg.Threads
	k, m := idx.Opts.K, idx.Opts.M

	// Per-thread write cursors, one per destination task, with the hard
	// bound of each exclusive sub-region. If the input changed since
	// IndexCreate the enumeration can produce more tuples than the index
	// promised; the bound stops the overflow from stomping another
	// thread's region and turns it into a clean error below.
	cur := make([]uint64, cfg.Tasks)
	lim := make([]uint64, cfg.Tasks)
	for dst := range cur {
		cur[dst] = gl.cursor[dst*T+t]
		if t+1 < T {
			lim[dst] = gl.cursor[dst*T+t+1]
		} else {
			lim[dst] = gl.dstOff[dst] + gl.dstCnt[dst]
		}
	}
	overflow := false

	// The enumeration state and the hoisted output columns: keys roll into
	// per-thread blocks, and tuples go straight into kmerOut's slices.
	wide := k > kmer.MaxK64
	var roll kmer.Roller
	var hiBlock, loBlock kmer.Block
	outHi, outLo, outVal := st.out.hi, st.out.lo, st.out.val
	binLo, binHi := uint64(passLo), uint64(passHi)
	// A narrow key's bin is key >> shift; shift ≤ 60, and the mask drops the
	// compiler's guard for shifts of 64 and more.
	shift := 2 * uint(k-m) & 63

	var scanner fastq.ChunkScanner
	obs := st.obs
	tid := obsv.TidWorker + t
	var cBytes, cRecords, cChunks *obsv.Counter
	if obs != nil {
		cBytes = st.counter("kmergen/bytes_read")
		cRecords = st.counter("kmergen/records")
		cChunks = st.counter("kmergen/chunks")
	}
	for range chunks {
		// Cancellation boundary: one check per chunk keeps a cancelled run's
		// response time bounded by a single chunk's enumeration, without
		// touching the per-record hot loop.
		if err := st.ctx.Err(); err != nil {
			return err
		}
		// KmerGen-I/O: obtain the next chunk. With the prefetcher running,
		// only the time spent *waiting* on an unfinished read is exposed
		// I/O; the serial single-CPU path charges the whole ReadAt here.
		t0 := time.Now()
		ci, buf, err := fetch.next()
		wait := time.Since(t0)
		*ioTime += wait
		if err != nil {
			return err
		}
		obs.RecordSpan(st.rank, tid, "detail", "chunk-wait", t0, wait, nil)
		c := &idx.Chunks[ci]
		cBytes.Add(uint64(len(buf)))
		cRecords.Add(uint64(c.Records))
		cChunks.Add(1)

		// KmerGen: parse records in place and enumerate tuples.
		t0 = time.Now()
		scanner.Reset(buf)
		for n := int32(0); n < c.Records; n++ {
			rec, err := scanner.Next()
			if err != nil {
				return fmt.Errorf("core: chunk %d record %d: %w", ci, n, err)
			}
			readID := idx.ReadIDOf(c, n)
			val := readID
			if cfg.CCOpt && s > 0 {
				// §3.5.1: later passes enumerate the read's current
				// component ID, concentrating LocalCC's random accesses on
				// component roots.
				val = st.dsu.Find(readID)
			}
			roll.Reset(rec.Seq, k)
			if !wide {
				for _, keys := roll.Next64(&loBlock); len(keys) > 0; _, keys = roll.Next64(&loBlock) {
					// Compact the block to the pass's k-mers in place, then
					// scatter the survivors to their owners' regions.
					kept := 0
					for _, key := range keys {
						keys[kept] = key
						kept += kmer.InRange(key>>shift, binLo, binHi)
					}
					for _, key := range keys[:kept] {
						dst := owner[key>>shift-binLo]
						i := cur[dst]
						if i >= lim[dst] {
							overflow = true
							continue
						}
						cur[dst] = i + 1
						outLo[i], outVal[i] = key, val
					}
				}
				continue
			}
			for _, his, los := roll.Next128(&hiBlock, &loBlock); len(los) > 0; _, his, los = roll.Next128(&hiBlock, &loBlock) {
				kept := 0
				for j := range los {
					km := kmer.Kmer128{Hi: his[j], Lo: los[j]}
					his[kept], los[kept] = km.Hi, km.Lo
					kept += kmer.InRange(uint64(kmer.Prefix128(km, k, m)), binLo, binHi)
				}
				for j := range los[:kept] {
					km := kmer.Kmer128{Hi: his[j], Lo: los[j]}
					dst := owner[uint64(kmer.Prefix128(km, k, m))-binLo]
					i := cur[dst]
					if i >= lim[dst] {
						overflow = true
						continue
					}
					cur[dst] = i + 1
					outHi[i], outLo[i], outVal[i] = km.Hi, km.Lo, val
				}
			}
		}
		parse := time.Since(t0)
		*genTime += parse
		obs.RecordSpan(st.rank, tid, "detail", "chunk-parse", t0, parse, nil)
		fetch.release(buf)
	}

	// The index promised exact counts; verify this thread filled its
	// sub-regions precisely (a mismatch, like an overflow above, means the
	// FASTQ changed since IndexCreate).
	if overflow {
		return fmt.Errorf("core: task %d thread %d produced more tuples than the index predicts — %w",
			st.rank, t, errStaleIndex)
	}
	for dst := 0; dst < cfg.Tasks; dst++ {
		if cur[dst] != lim[dst] {
			start := gl.cursor[dst*T+t]
			return fmt.Errorf("core: task %d thread %d: wrote %d tuples for task %d, index predicts %d — %w",
				st.rank, t, cur[dst]-start, dst, lim[dst]-start, errStaleIndex)
		}
	}
	return nil
}

// maxOfDur returns the largest duration, the parallel phase's critical-path
// time across threads.
func maxOfDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// openInputs opens every input file once per task; chunk reads use ReadAt
// and need no per-thread handles.
func openInputs(idx *index.Index) ([]*os.File, error) {
	files := make([]*os.File, len(idx.Files))
	for i, path := range idx.Files {
		f, err := os.Open(path)
		if err != nil {
			for _, g := range files[:i] {
				g.Close()
			}
			return nil, fmt.Errorf("core: %w", err)
		}
		files[i] = f
	}
	return files, nil
}
