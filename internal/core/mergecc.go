package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"metaprep/internal/fastq"
	"metaprep/internal/obsv"
	"metaprep/internal/par"
)

// mergecc.go implements MergeCC (§3.6): the ⌈log P⌉-round tree merge of
// local component arrays, the broadcast of the global result, and the
// partitioned FASTQ output.

// mergeResult is what rank 0 broadcasts after the merge: the flattened
// component label array, the largest component, and — when component
// splitting is on — the roots of the components that get their own output
// file sets (largest first).
type mergeResult struct {
	labels      []uint32
	largestRoot uint32
	largestSize int
	topRoots    []uint32
}

// mergeCC folds all tasks' disjoint-set arrays into rank 0, flattens the
// result into component labels, and broadcasts labels plus the largest
// component to every task. All tasks return the same mergeResult (the
// labels slice is shared read-only across tasks).
//
// The merge is the pipelined delta schedule: each non-root rank streams, per
// round of the §3.6 tree, only the parent entries that changed since its
// previous snapshot (round 0 is the full sparse baseline) over nonblocking
// sends, so a round's transfer overlaps the parent's absorb of the previous
// one. The label broadcast runs over the binomial tree.
func (st *taskState) mergeCC() mergeResult {
	T := st.p.cfg.Threads

	// Tree merge: senders snapshot their changed parent entries (the
	// transfer's payload, 8 bytes per entry); receivers absorb the pairs as
	// implicit edges.
	var mergeTime time.Duration
	tm0 := time.Now()
	st.t.PipelinedTreeMerge(tagDelta,
		func(round int) (any, int) {
			// Ownership of the pairs slice transfers to the receiver, so
			// each round snapshots into a fresh slice; rounds after the
			// baseline carry only what the previous round's absorbs
			// changed, which is where the wire-byte saving comes from.
			t0 := time.Now()
			pairs := st.dsu.SnapshotDelta(nil)
			mergeTime += time.Since(t0)
			return pairs, 4 * len(pairs)
		},
		func(src, round int, payload any) {
			t0 := time.Now()
			st.unionAttempts += st.dsu.AbsorbPairs(payload.([]uint32), T)
			mergeTime += time.Since(t0)
		},
	)
	commDur := st.t.TakeCommTime()
	st.rep.Steps.MergeComm += commDur
	st.stepSpan("Merge-Comm", tm0, commDur)

	// Rank 0 flattens and sizes the components once (in parallel).
	var res mergeResult
	if st.rank == 0 {
		t0 := time.Now()
		labels := st.dsu.Flatten(T)
		res = newMergeResult(labels, st.dsu.ComponentSizesPar(T), st.p.cfg.SplitComponents)
		mergeTime += time.Since(t0)
	}
	st.rep.Steps.MergeCC += mergeTime
	st.stepSpan("MergeCC", tm0.Add(commDur), mergeTime)

	// Broadcast the global component list (§3.6: "The global components
	// list in Rank 0 is broadcast to all other tasks").
	tb0 := time.Now()
	st.t.TreeBroadcast(tagBcast,
		func(dst int) (any, int) { return res, 4 * len(res.labels) },
		func(src int, payload any) { res = payload.(mergeResult) },
	)
	bcastDur := st.t.TakeCommTime()
	st.rep.Steps.MergeComm += bcastDur
	st.stepSpan("Merge-Comm", tb0, bcastDur)
	return res
}

// newMergeResult derives the largest component (ties toward the smaller
// root) and — for component splitting — the split largest roots from one
// component-size count.
func newMergeResult(labels []uint32, sizes map[uint32]int, split int) mergeResult {
	res := mergeResult{labels: labels}
	for r, s := range sizes {
		if s > res.largestSize || (s == res.largestSize && r < res.largestRoot) {
			res.largestRoot, res.largestSize = r, s
		}
	}
	if split > 0 {
		res.topRoots = topComponents(sizes, split)
	}
	return res
}

// topComponents returns the roots of the n largest components, largest
// first, ties broken toward the smaller root. Selection is bounded: a
// size-n heap ordered worst-at-top replaces the full sort, so a run with C
// components pays O(C log n) instead of O(C log C).
func topComponents(sizes map[uint32]int, n int) []uint32 {
	type comp struct {
		root uint32
		size int
	}
	if n > len(sizes) {
		n = len(sizes)
	}
	if n <= 0 {
		return nil
	}
	// worse orders the heap: the kept component easiest to evict (smallest
	// size, then largest root) sits at index 0.
	worse := func(a, b comp) bool {
		if a.size != b.size {
			return a.size < b.size
		}
		return a.root > b.root
	}
	heap := make([]comp, 0, n)
	siftDown := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(heap) && worse(heap[l], heap[m]) {
				m = l
			}
			if r := 2*i + 2; r < len(heap) && worse(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for root, size := range sizes {
		c := comp{root, size}
		if len(heap) < n {
			heap = append(heap, c)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !worse(heap[i], heap[p]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
			continue
		}
		if worse(heap[0], c) {
			heap[0] = c
			siftDown(0)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return worse(heap[j], heap[i]) })
	roots := make([]uint32, len(heap))
	for i, c := range heap {
		roots[i] = c.root
	}
	return roots
}

// writeOutput is the CC-I/O step: each thread re-reads its FASTQ chunks and
// appends every record to one of its private output files (§3.6: "Each
// thread writes to separate FASTQ files"). By default there are two groups
// per thread — the largest component and the rest; with SplitComponents
// there is one group per top component plus the rest. The returned slice is
// indexed [group][thread].
//
// fetchers holds one per-thread chunk prefetcher, already streaming — the
// pipeline starts them before the merge so output reads overlap
// Merge-Comm/MergeCC. Records whose raw bytes are already canonical are
// blitted verbatim into the group writers.
func (st *taskState) writeOutput(res mergeResult, fetchers []*chunkFetcher) ([][]string, error) {
	cfg := st.p.cfg
	T := cfg.Threads

	roots := res.topRoots
	if len(roots) == 0 {
		roots = []uint32{res.largestRoot}
	}
	groupOf := make(map[uint32]int, len(roots))
	for g, r := range roots {
		groupOf[r] = g
	}
	other := len(roots) // the remainder group
	groupName := func(g int) string {
		switch {
		case g == other:
			return "other"
		case len(res.topRoots) == 0:
			return "lc"
		default:
			return fmt.Sprintf("comp%03d", g)
		}
	}

	t0 := time.Now()
	// Each read's output group resolves through a flat array instead of a
	// per-record map probe; built in parallel once, it costs 4R transient
	// bytes and removes the lookup from the blit loop.
	groupArr := make([]int32, len(res.labels))
	par.For(T, len(res.labels), func(i int) {
		if g, ok := groupOf[res.labels[i]]; ok {
			groupArr[i] = int32(g)
		} else {
			groupArr[i] = int32(other)
		}
	})
	paths := make([][]string, other+1)
	for g := range paths {
		paths[g] = make([]string, T)
	}
	errs := make([]error, T)
	bytesOut := make([]int64, T)
	recsOut := make([]int64, T)
	rawRecs := make([]int64, T)
	reencRecs := make([]int64, T)
	par.Run(T, func(t int) {
		files := make([]*os.File, other+1)
		// Backstop close for the error paths; the success path below closes
		// explicitly and reports the error.
		defer func() {
			for _, f := range files {
				if f != nil {
					f.Close()
				}
			}
		}()
		writers := make([]*fastq.Writer, other+1)
		for g := range files {
			path := filepath.Join(cfg.OutDir,
				fmt.Sprintf("%s_p%03d_t%03d.fastq", groupName(g), st.rank, t))
			paths[g][t] = path
			f, err := os.Create(path)
			if err != nil {
				errs[t] = err
				return
			}
			files[g] = f
			writers[g] = fastq.NewWriter(f)
		}
		var err error
		rawRecs[t], reencRecs[t], err = st.writeChunksZeroCopy(fetchers[t], groupArr, writers, t)
		if err != nil {
			errs[t] = err
			return
		}
		for g, w := range writers {
			if err := w.Flush(); err != nil {
				errs[t] = err
				return
			}
			bytesOut[t] += w.BytesWritten()
			recsOut[t] += w.Count()
			f := files[g]
			files[g] = nil
			// A failed Close can drop flushed-but-unwritten data on some
			// filesystems; it must surface, not vanish into a defer.
			if err := f.Close(); err != nil {
				errs[t] = err
				return
			}
		}
	})
	d := time.Since(t0)
	st.rep.Steps.CCIO += d
	st.stepSpan("CC-I/O", t0, d)
	if st.obs != nil {
		var b, r, vr, rr int64
		for t := 0; t < T; t++ {
			b += bytesOut[t]
			r += recsOut[t]
			vr += rawRecs[t]
			rr += reencRecs[t]
		}
		st.counter("ccio/bytes_written").Add(uint64(b))
		st.counter("ccio/records").Add(uint64(r))
		st.counter("ccio/verbatim_records").Add(uint64(vr))
		st.counter("ccio/reencoded_records").Add(uint64(rr))
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// writeChunksZeroCopy drains one thread's prefetched chunks, blitting each
// record's raw byte span straight into its group writer when the span is
// already in canonical form and re-encoding the rare rest (CRLF input,
// '+ID' separator lines, a missing final newline) so every output record is
// in fastq.Writer's canonical form. Because NextRaw's spans tile the
// chunk buffer, adjacent verbatim records bound for the same group coalesce
// into one run and ship as a single write — on clustered components (the
// common case: long stretches of a chunk belong to the largest component)
// the per-record writer call disappears from the hot loop.
func (st *taskState) writeChunksZeroCopy(fetch *chunkFetcher, groupArr []int32,
	writers []*fastq.Writer, t int) (verbatim, reencoded int64, err error) {
	defer fetch.close()
	idx := st.p.idx
	var sc fastq.ChunkScanner
	for {
		if err := st.ctx.Err(); err != nil {
			return verbatim, reencoded, err
		}
		w0 := time.Now()
		ci, buf, err := fetch.next()
		if buf == nil && err == nil {
			return verbatim, reencoded, nil
		}
		st.obs.RecordSpan(st.rank, obsv.TidWorker+t, "detail", "output-chunk-wait", w0, time.Since(w0), nil)
		if err != nil {
			return verbatim, reencoded, err
		}
		c := &idx.Chunks[ci]
		if c.Canonical {
			// The index marked every record of this chunk as canonically
			// stored, and a record's group depends only on its read ID, so
			// each same-group run of records is one contiguous blit with no
			// parsing at all. Interior run boundaries are found by counting
			// newlines (4 per record); a run reaching the chunk's end —
			// including the whole-chunk single-group case — needs no scan.
			pos := 0
			for n := int32(0); n < c.Records; {
				g := groupArr[idx.ReadIDOf(c, n)]
				runEnd := n + 1
				for runEnd < c.Records && groupArr[idx.ReadIDOf(c, runEnd)] == g {
					runEnd++
				}
				end := len(buf)
				if runEnd < c.Records {
					end = pos
					for nl := 4 * (runEnd - n); nl > 0; nl-- {
						j := bytes.IndexByte(buf[end:], '\n')
						if j < 0 {
							return verbatim, reencoded, fmt.Errorf("core: output re-read chunk %d: %w", ci, fastq.ErrFormat)
						}
						end += j + 1
					}
				}
				if err := writers[g].WriteRawN(buf[pos:end], int64(runEnd-n)); err != nil {
					return verbatim, reencoded, err
				}
				verbatim += int64(runEnd - n)
				pos = end
				n = runEnd
			}
			fetch.release(buf)
			continue
		}
		sc.Reset(buf)
		// run is the current contiguous span of same-group verbatim records;
		// extending it is a pure reslice because consecutive raw spans abut.
		var run []byte
		var runG int32
		var runN int64
		flush := func() error {
			if runN == 0 {
				return nil
			}
			err := writers[runG].WriteRawN(run, runN)
			run, runN = nil, 0
			return err
		}
		for n := int32(0); n < c.Records; n++ {
			rec, raw, verb, err := sc.NextRaw()
			if err != nil {
				return verbatim, reencoded, fmt.Errorf("core: output re-read chunk %d: %w", ci, err)
			}
			g := groupArr[idx.ReadIDOf(c, n)]
			if verb {
				verbatim++
				if runN > 0 && g == runG {
					run = run[:len(run)+len(raw)]
					runN++
					continue
				}
				if err := flush(); err != nil {
					return verbatim, reencoded, err
				}
				run, runG, runN = raw, g, 1
				continue
			}
			if err := flush(); err != nil {
				return verbatim, reencoded, err
			}
			reencoded++
			if err := writers[g].Write(rec); err != nil {
				return verbatim, reencoded, err
			}
		}
		if err := flush(); err != nil {
			return verbatim, reencoded, err
		}
		fetch.release(buf)
	}
}

// concatFiles concatenates src files into dst (a convenience for callers
// that want a single LC file; the pipeline itself writes per-thread files
// as the paper does). One copy buffer is reused across sources, and both
// the final Flush and the destination Close are error-checked — a short
// write surfacing only at close time must not be swallowed.
func concatFiles(dst string, srcs []string) (err error) {
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriterSize(out, 1<<20)
	buf := make([]byte, 256<<10)
	for _, s := range srcs {
		f, err := os.Open(s)
		if err != nil {
			return err
		}
		if _, err := io.CopyBuffer(bw, f, buf); err != nil {
			f.Close()
			return err
		}
		f.Close()
	}
	return bw.Flush()
}
