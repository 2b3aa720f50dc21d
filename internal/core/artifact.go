package core

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"metaprep/internal/artifact"
	"metaprep/internal/extsort"
	"metaprep/internal/mpirt"
	"metaprep/internal/obsv"
	"metaprep/internal/unionfind"
)

// artifact.go wires the persistent partition artifact (internal/artifact)
// into the pipeline: the emit path tees LocalCC's sorted groups into an
// artifact, the reload path turns a stored artifact back into a Result
// without re-running the front half of the pipeline, and the incremental
// path merges a delta run against a stored base.

// artifactEmit collects the pipeline's sorted tuple stream into per-(pass,
// rank, thread) part files while the run executes, then assembles them —
// in global key order — into one artifact after the result is known. There
// is one tee: each LocalCC thread writes the groups its sorted source
// yields, whichever sink produced them, so no second enumeration pass
// happens and every memory shape writes the same parts. Each group's
// values go out in ascending order, which makes the part bytes a function
// of the pass, rank and thread cuts alone: the in-RAM and spilling sinks
// emit identical kmers sections, and at one pass every task and thread
// count decodes to the same (key, value) stream (TestArtifactShapeContract).
//
// Concatenating parts for pass, then rank, then thread replays the global
// key order (the pass-major/rank-major/bin-major concatenation order that
// count.go documents), so assembly is a verbatim block copy — the artifact
// uses the same extsort block codec as the parts.
//
// Under the §3.5.1 multi-pass optimization (CCOpt with Passes ≥ 2), tuple
// values from the second pass on are component IDs rather than read IDs.
// The artifact stores them as-is: a component ID is a same-component read
// ID, so both the label map (stored separately) and the incremental merge
// (which only needs "some read in the same component") stay correct.
type artifactEmit struct {
	dir         string
	wide        bool
	compress    bool
	blockTuples int
	// parts[pass][rank][thread]. Distinct goroutines write distinct slots,
	// so no locking.
	parts [][][]artifactPart
}

// artifactPart locates one part file's encoded block range.
type artifactPart struct {
	path   string
	len    int64
	tuples uint64
}

// newArtifactEmit sets up the part table; the parts go to dir, the run's
// scratch directory, which goes with the run.
func newArtifactEmit(cfg Config, pl *plan, dir string) *artifactEmit {
	e := &artifactEmit{
		dir:  dir,
		wide: !pl.use64(),
		// Narrow keys always get the varint/delta block encoding: the
		// artifact is persistent, so the one-time encode cost buys every
		// later reload its I/O back. 128-bit keys have no compressed path.
		compress:    pl.use64(),
		blockTuples: artifact.DefaultBlockTuples,
		parts:       make([][][]artifactPart, cfg.Passes),
	}
	for s := range e.parts {
		e.parts[s] = make([][]artifactPart, cfg.Tasks)
		for r := range e.parts[s] {
			e.parts[s][r] = make([]artifactPart, cfg.Threads)
		}
	}
	return e
}

// partTee buffers the groups one LocalCC thread consumes and encodes them
// into its part file in blocks of the artifact's block size.
type partTee struct {
	e       *artifactEmit
	slot    *artifactPart // where close registers the part
	f       *os.File
	bw      *bufio.Writer
	path    string
	lo, hi  []uint64
	val     []uint32
	scratch []byte
	bytes   int64
	tuples  uint64
	err     error
}

func (e *artifactEmit) newPartTee(s, rank, thread int) (*partTee, error) {
	path := filepath.Join(e.dir, fmt.Sprintf("s%02d-r%03d-t%03d.part", s, rank, thread))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	t := &partTee{
		e: e, slot: &e.parts[s][rank][thread], f: f, path: path,
		bw:  bufio.NewWriterSize(f, 256<<10),
		lo:  make([]uint64, 0, e.blockTuples),
		val: make([]uint32, 0, e.blockTuples),
	}
	if e.wide {
		t.hi = make([]uint64, 0, e.blockTuples)
	}
	return t, nil
}

// add appends one group: a tuple (hi, lo, v) for every v in vals.
func (t *partTee) add(hi, lo uint64, vals []uint32) {
	for _, v := range vals {
		t.lo = append(t.lo, lo)
		if t.hi != nil {
			t.hi = append(t.hi, hi)
		}
		t.val = append(t.val, v)
		if len(t.lo) >= t.e.blockTuples {
			t.flush()
		}
	}
}

func (t *partTee) flush() {
	if len(t.lo) == 0 || t.err != nil {
		return
	}
	t.scratch = extsort.AppendBlock(t.scratch[:0], t.lo, t.hi, t.val, t.e.compress)
	if _, err := t.bw.Write(t.scratch); err != nil {
		t.err = err
		return
	}
	t.bytes += int64(len(t.scratch))
	t.tuples += uint64(len(t.lo))
	t.lo, t.val = t.lo[:0], t.val[:0]
	if t.hi != nil {
		t.hi = t.hi[:0]
	}
}

// close flushes the final partial block and registers the part.
func (t *partTee) close() error {
	t.flush()
	if t.err == nil {
		t.err = t.bw.Flush()
	}
	if cerr := t.f.Close(); t.err == nil {
		t.err = cerr
	}
	if t.err != nil {
		return t.err
	}
	*t.slot = artifactPart{path: t.path, len: t.bytes, tuples: t.tuples}
	return nil
}

// discard releases the file handle on abort paths (the run's scratch
// directory is removed wholesale). After close it is a no-op: a second Close
// only reports os.ErrClosed.
func (t *partTee) discard() { t.f.Close() }

// assemble stitches the collected parts, the label map and the histogram
// into the final artifact at cfg.ArtifactOut. Parts are copied verbatim
// (already block-encoded) in pass/rank/thread order — the global key order.
func (e *artifactEmit) assemble(cfg Config, pl *plan, res *Result) error {
	t0 := time.Now()
	w, err := artifact.Create(cfg.ArtifactOut)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := w.BeginKmers(e.wide, e.compress, e.blockTuples); err != nil {
		return err
	}
	for s := range e.parts {
		for r := range e.parts[s] {
			for _, p := range e.parts[s][r] {
				if p.tuples == 0 {
					continue
				}
				f, err := os.Open(p.path)
				if err != nil {
					return err
				}
				err = w.CopyBlocks(f, p.len, p.tuples)
				f.Close()
				if err != nil {
					return err
				}
			}
		}
	}
	if err := w.EndKmers(); err != nil {
		return err
	}
	if got := w.Tuples(); got != res.Tuples {
		return fmt.Errorf("core: artifact emit collected %d tuples, pipeline enumerated %d", got, res.Tuples)
	}
	if err := w.Labels(res.Labels); err != nil {
		return err
	}
	if err := w.Hist(res.KmerFreqHist); err != nil {
		return err
	}
	opts := pl.idx.Opts
	if err := w.Finish(artifact.Meta{
		Kind:        artifact.KindPartition,
		K:           opts.K,
		M:           opts.M,
		FilterMin:   int(cfg.Filter.Min),
		FilterMax:   int(cfg.Filter.Max),
		Reads:       pl.idx.Reads,
		Tuples:      res.Tuples,
		Edges:       res.Edges,
		IndexDigest: pl.idx.Digest(),
		ConfigHash:  cfg.CanonicalHash(),
	}); err != nil {
		return err
	}
	if obs := cfg.Obs; obs != nil {
		obs.Counter(obsv.RankGlobal, "artifact/bytes_written").Add(uint64(w.BytesWritten()))
		obs.RecordSpan(0, obsv.TidArtifact, "detail", "artifact-assemble", t0, time.Since(t0),
			map[string]any{"tuples": res.Tuples, "path": cfg.ArtifactOut})
	}
	return nil
}

// checkArtifactCompat verifies a partition artifact is usable under this
// run's parameters: kind, label presence, k/m and the frequency filter.
// The reload path additionally pins the index digest and read count
// (runFromArtifact); the incremental path deliberately does not — its
// index is the delta, not the base. Meta.ConfigHash is never compared: it
// covers run-shape knobs (tasks, threads, out dir) that cannot change
// labels.
func checkArtifactCompat(r *artifact.Reader, cfg Config, pl *plan) error {
	m := r.Meta()
	opts := pl.idx.Opts
	fail := func(format string, args ...any) error {
		return fmt.Errorf("artifact %s: %s: %w",
			r.Path(), fmt.Sprintf(format, args...), artifact.ErrMismatch)
	}
	if m.Kind != artifact.KindPartition {
		return fail("kind %q, want %q", m.Kind, artifact.KindPartition)
	}
	if !r.HasLabels() {
		return fail("no label section")
	}
	if m.K != opts.K || m.M != opts.M {
		return fail("built with k=%d m=%d, run uses k=%d m=%d", m.K, m.M, opts.K, opts.M)
	}
	if m.FilterMin != int(cfg.Filter.Min) || m.FilterMax != int(cfg.Filter.Max) {
		return fail("built under filter [min=%d,max=%d], run uses [min=%d,max=%d]",
			m.FilterMin, m.FilterMax, cfg.Filter.Min, cfg.Filter.Max)
	}
	return nil
}

// checkLabels bounds-checks a stored label map before it is used to index
// anything: len must equal the read count and every label must be a valid
// read ID.
func checkLabels(r *artifact.Reader, labels []uint32, reads uint32) error {
	if uint32(len(labels)) != reads {
		return fmt.Errorf("artifact %s: %d labels for %d reads: %w",
			r.Path(), len(labels), reads, artifact.ErrBadArtifact)
	}
	for i, l := range labels {
		if l >= reads {
			return fmt.Errorf("artifact %s: label[%d]=%d out of range (%d reads): %w",
				r.Path(), i, l, reads, artifact.ErrBadArtifact)
		}
	}
	return nil
}

// mergeResultFromLabels rebuilds what mergeCC's rank 0 derives from a stored
// label map. The sizes map is returned for the Components count.
func mergeResultFromLabels(labels []uint32, split int) (mergeResult, map[uint32]int) {
	sizes := make(map[uint32]int, 1024)
	for _, l := range labels {
		sizes[l]++
	}
	return newMergeResult(labels, sizes, split), sizes
}

// outputOnlyRun spins up a world that performs only the CC-I/O step: the
// reload and incremental paths have labels in hand but still partition the
// input FASTQ. The output is byte-identical to a direct run's because
// writeOutput is the same code over the same per-thread chunk lists.
func outputOnlyRun(ctx context.Context, cfg Config, pl *plan, mr mergeResult) ([]TaskReport, [][][]string, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, nil, err
	}
	world := mpirt.NewWorld(cfg.Tasks, cfg.Network)
	world.SetCollector(cfg.Obs)
	reports := make([]TaskReport, cfg.Tasks)
	outFiles := make([][][]string, cfg.Tasks)
	err := world.RunContext(ctx, func(task *mpirt.Task) error {
		st := newTaskState(ctx, pl, task)
		defer st.closeFiles()
		files, err := openInputs(pl.idx)
		if err != nil {
			return err
		}
		st.files = files
		st.allocChunkBufs()
		fetchers := st.startOutputFetchers()
		defer func() {
			for _, f := range fetchers {
				f.close()
			}
		}()
		paths, err := st.writeOutput(mr, fetchers)
		if err != nil {
			return err
		}
		outFiles[st.rank] = paths
		reports[st.rank] = st.rep
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return reports, outFiles, nil
}

// runFromArtifact is the reload path: ArtifactIn set without ArtifactDelta.
// The artifact's label map IS the result — KmerGen, the exchange, sort and
// CC are all skipped — and output writing (when OutDir is set) replays
// CC-I/O over the same index. Drift reconciliation is skipped: the model
// predicts the full pipeline, and a reload runs only its final step.
func runFromArtifact(ctx context.Context, cfg Config, pl *plan) (*Result, error) {
	start := time.Now()
	r, err := artifact.Open(cfg.ArtifactIn)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := checkArtifactCompat(r, cfg, pl); err != nil {
		return nil, err
	}
	m := r.Meta()
	mismatch := func(format string, args ...any) error {
		return fmt.Errorf("artifact %s: %s: %w",
			r.Path(), fmt.Sprintf(format, args...), artifact.ErrMismatch)
	}
	if m.IndexDigest != pl.idx.Digest() {
		return nil, mismatch("built from index %s, run uses %s", m.IndexDigest, pl.idx.Digest())
	}
	if m.Reads != pl.idx.Reads {
		return nil, mismatch("built over %d reads, index has %d", m.Reads, pl.idx.Reads)
	}
	labels, err := r.Labels()
	if err != nil {
		return nil, err
	}
	if err := checkLabels(r, labels, pl.idx.Reads); err != nil {
		return nil, err
	}
	hist, err := r.Hist()
	if err != nil {
		return nil, err
	}
	// The reload result never dereferences the k-mer section, but a
	// reloaded artifact is trusted as an incremental base later; extsort
	// blocks carry no per-block checksums, so this CRC pass is the only
	// integrity check the tuple stream gets.
	if err := r.VerifyKmers(); err != nil {
		return nil, err
	}
	mr, sizes := mergeResultFromLabels(labels, cfg.SplitComponents)
	if obs := cfg.Obs; obs != nil {
		obs.Counter(obsv.RankGlobal, "artifact/bytes_read").Add(uint64(r.BytesRead()))
		obs.RecordSpan(0, obsv.TidArtifact, "detail", "artifact-load", start, time.Since(start),
			map[string]any{"path": cfg.ArtifactIn, "reads": len(labels)})
	}

	res := &Result{
		Labels:       labels,
		LargestRoot:  mr.largestRoot,
		LargestSize:  mr.largestSize,
		Components:   len(sizes),
		Reads:        pl.idx.Reads,
		Tuples:       m.Tuples,
		Edges:        m.Edges,
		KmerFreqHist: hist,
		PerTask:      make([]TaskReport, cfg.Tasks),
	}
	for i := range res.PerTask {
		res.PerTask[i].Rank = i
	}
	if cfg.OutDir != "" {
		reports, outFiles, err := outputOnlyRun(ctx, cfg, pl, mr)
		if err != nil {
			return nil, err
		}
		res.PerTask = reports
		res.Steps = MaxOf(stepsOf(reports))
		fillOutputFiles(res, outFiles, cfg)
	}
	res.Wall = time.Since(start)
	if cfg.Log != nil {
		cfg.Log.InfoContext(ctx, "pipeline done (artifact reload)",
			"wall", res.Wall, "components", res.Components,
			"largest_frac", res.LargestFraction(), "artifact", cfg.ArtifactIn)
	}
	return res, nil
}

// runIncremental is incremental repartitioning: cfg.Index names only the
// NEW (delta) FASTQ files and ArtifactIn the base partition. The delta is
// enumerated, exchanged and sorted by a normal (recursive) pipeline run
// that writes a temporary delta artifact; the base and delta tuple
// sections are then 2-way merged as streams, and each merged run's star
// edges are unioned into a DSU reconstructed from the base's stored
// labels. Labels over base∪delta come out label-isomorphic to a full
// recompute over the combined input (TestIncrementalParity); the cost is
// proportional to reading the base's tuples, not re-enumerating its FASTQ.
//
// Delta read IDs are rebased: global read r of the delta index becomes
// base.Reads + r in the combined label space.
func runIncremental(ctx context.Context, cfg Config, pl *plan, scratch string) (*Result, error) {
	start := time.Now()
	base, err := artifact.Open(cfg.ArtifactIn)
	if err != nil {
		return nil, err
	}
	defer base.Close()
	if err := checkArtifactCompat(base, cfg, pl); err != nil {
		return nil, err
	}
	bm := base.Meta()
	wide := !pl.use64()
	if bm.Wide != wide {
		return nil, fmt.Errorf("artifact %s: key width disagrees with k=%d: %w",
			base.Path(), pl.idx.Opts.K, artifact.ErrMismatch)
	}
	baseLabels, err := base.Labels()
	if err != nil {
		return nil, err
	}
	if err := checkLabels(base, baseLabels, bm.Reads); err != nil {
		return nil, err
	}
	// extsort blocks carry no per-block checksums; CRC the base's tuple
	// stream up front so corruption fails fast instead of silently merging
	// garbage edges.
	if err := base.VerifyKmers(); err != nil {
		return nil, err
	}
	baseReads := bm.Reads
	deltaReads := pl.idx.Reads
	if uint64(baseReads)+uint64(deltaReads) > uint64(^uint32(0)) {
		return nil, &ConfigError{Field: "ArtifactDelta",
			Reason: fmt.Sprintf("combined read space %d+%d overflows 32-bit read IDs", baseReads, deltaReads)}
	}

	// Enumerate + sort the delta with a plain recursive pipeline run that
	// emits its own artifact into this run's scratch, and keeps its own
	// scratch inside it. Output and artifact knobs are stripped: only the
	// delta's sorted tuple stream and its accounting are consumed here
	// (its internal DSU is discarded — delta-internal connectivity is
	// re-derived from the merged stream below).
	dcfg := cfg
	dcfg.ArtifactIn, dcfg.ArtifactDelta = "", false
	dcfg.OutDir = ""
	dcfg.SplitComponents = 0
	dcfg.SpillDir = scratch
	dcfg.ArtifactOut = filepath.Join(scratch, "delta.mpa")
	dres, err := RunContext(ctx, dcfg)
	if err != nil {
		return nil, err
	}
	delta, err := artifact.Open(dcfg.ArtifactOut)
	if err != nil {
		return nil, err
	}
	defer delta.Close()
	dm := delta.Meta()

	// 2-way streaming merge of the two sorted tuple sections. Leaf 0 is the
	// base: the loser tree breaks key ties toward the lower leaf, so within
	// a run every base tuple precedes every delta tuple.
	t0 := time.Now()
	bf, bseg := base.KmerSeg()
	df, dseg := delta.KmerSeg()
	readers := []*extsort.SegReader{
		extsort.NewSegReader(bf, bseg, bm.Wide, bm.Compress, bm.BlockTuples),
		extsort.NewSegReader(df, dseg, dm.Wide, dm.Compress, dm.BlockTuples),
	}
	mg, err := extsort.NewMerger(readers)
	if err != nil {
		for _, sr := range readers {
			sr.Close()
		}
		return nil, err
	}
	defer mg.Close()

	var out *artifact.Writer
	if cfg.ArtifactOut != "" {
		out, err = artifact.Create(cfg.ArtifactOut)
		if err != nil {
			return nil, err
		}
		defer out.Abort()
		if err := out.BeginKmers(wide, pl.use64(), artifact.DefaultBlockTuples); err != nil {
			return nil, err
		}
	}

	// The base labels are valid DSU parent state (flattened, root = max
	// read ID per component), so the union-by-index invariant holds from
	// the first Connect. The merge runs on one goroutine, so no Union CAS
	// can lose a race and Connect's result needs no retry buffer. A
	// parallel merge must buffer those edges and hand them to unionfind's
	// Reverify, as LocalCC does.
	dsu := unionfind.NewFromLabels(baseLabels, int(deltaReads))
	filter := cfg.Filter
	// Filter.Max is rejected for delta runs at Validate, so every run of
	// length ≥ 2 passes the filter whenever Min ≤ 2, and edges can stream
	// ahead of the run's end.
	streaming := filter.Min <= 2
	hist := make([]uint64, freqHistSize)
	var (
		runsMerged, deltaRuns, edges, streamed uint64
		curHi, curLo                           uint64
		f                                      uint32
		v0                                     uint32
		runHasDelta                            bool
		vals                                   []uint32
	)
	endRun := func() {
		if f == 0 {
			return
		}
		runsMerged++
		if runHasDelta {
			deltaRuns++
		}
		if f < freqHistSize {
			hist[f]++
		} else {
			hist[freqHistSize-1]++
		}
		if !streaming && runHasDelta && f >= 2 && filter.Keep(f) {
			// Under Min > 2 a run can cross the bound only because of its
			// delta occurrences, in which case the base run generated no
			// edges at all — every member must be unioned, base–base pairs
			// included.
			for _, vi := range vals[1:] {
				edges++
				dsu.Connect(vals[0], vi)
			}
		}
	}
	for {
		hi, lo, val, ok, err := mg.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		fromDelta := mg.Src() == 1
		if fromDelta {
			val += baseReads
		}
		if out != nil {
			if err := out.Tuple(hi, lo, val); err != nil {
				return nil, err
			}
		}
		streamed++
		if streamed&8191 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if f > 0 && hi == curHi && lo == curLo {
			f++
			runHasDelta = runHasDelta || fromDelta
			if streaming {
				if fromDelta {
					// Base tuples sort ahead of delta tuples within a run,
					// and base–base pairs are already connected in the
					// reloaded labels, so only delta members need an edge
					// to the run head.
					edges++
					dsu.Connect(v0, val)
				}
			} else {
				vals = append(vals, val)
			}
			continue
		}
		endRun()
		curHi, curLo, v0, f = hi, lo, val, 1
		runHasDelta = fromDelta
		if !streaming {
			vals = append(vals[:0], val)
		}
	}
	endRun()

	labels := dsu.Flatten(cfg.Threads)
	mr, sizes := mergeResultFromLabels(labels, cfg.SplitComponents)
	if obs := cfg.Obs; obs != nil {
		logical := streamed * uint64(pl.bytesPerTuple())
		obs.Counter(obsv.RankGlobal, "artifact/bytes_read").
			Add(uint64(base.BytesRead()+delta.BytesRead()) + logical)
		obs.Counter(obsv.RankGlobal, "artifact/runs_merged").Add(runsMerged)
		obs.Counter(obsv.RankGlobal, "artifact/delta_kmers").Add(deltaRuns)
		obs.RecordSpan(0, obsv.TidArtifact, "detail", "incremental-merge", t0, time.Since(t0),
			map[string]any{"runs": runsMerged, "delta_runs": deltaRuns,
				"edges": edges, "tuples": streamed})
	}

	res := &Result{
		Labels:      labels,
		LargestRoot: mr.largestRoot,
		LargestSize: mr.largestSize,
		Components:  len(sizes),
		Reads:       baseReads + deltaReads,
		Steps:       dres.Steps,
		PerTask:     append([]TaskReport(nil), dres.PerTask...),
		Tuples:      base.Tuples() + dres.Tuples,
		// Edges counts what was fed to THIS run's union–find: the merge's
		// star edges over the reloaded DSU. The base's historical edges are
		// folded into the reloaded labels, and the recursive delta run's
		// internal edges were re-derived from the merged stream.
		Edges:         edges,
		CCIterations:  dres.CCIterations,
		KmerFreqHist:  hist,
		MemoryPerTask: dres.MemoryPerTask,
	}
	if cfg.OutDir != "" {
		// Output covers the delta index only (the base FASTQ is not part of
		// this run's input); its reads' labels start at baseReads. Group
		// roots stay in the combined space, consistent with the label
		// values.
		omr := mergeResult{
			labels:      labels[baseReads:],
			largestRoot: mr.largestRoot,
			largestSize: mr.largestSize,
			topRoots:    mr.topRoots,
		}
		reports, outFiles, err := outputOnlyRun(ctx, cfg, pl, omr)
		if err != nil {
			return nil, err
		}
		for i := range res.PerTask {
			res.PerTask[i].Steps.CCIO += reports[i].Steps.CCIO
		}
		res.Steps = MaxOf(stepsOf(res.PerTask))
		fillOutputFiles(res, outFiles, cfg)
	}
	// The merged artifact commits last, after CC-I/O, so a file at
	// ArtifactOut always comes from a run that succeeded.
	if out != nil {
		if err := out.EndKmers(); err != nil {
			return nil, err
		}
		if err := out.Labels(labels); err != nil {
			return nil, err
		}
		if err := out.Hist(hist); err != nil {
			return nil, err
		}
		baseID := bm.IndexDigest
		if baseID == "" {
			baseID = filepath.Base(base.Path())
		}
		if err := out.Finish(artifact.Meta{
			Kind:      artifact.KindPartition,
			K:         pl.idx.Opts.K,
			M:         pl.idx.Opts.M,
			FilterMin: int(filter.Min),
			FilterMax: int(filter.Max),
			Reads:     baseReads + deltaReads,
			Tuples:    base.Tuples() + delta.Tuples(),
			Edges:     bm.Edges + edges,
			Op:        "incremental",
			Lineage:   []string{baseID, dm.IndexDigest},
		}); err != nil {
			return nil, err
		}
		if obs := cfg.Obs; obs != nil {
			obs.Counter(obsv.RankGlobal, "artifact/bytes_written").Add(uint64(out.BytesWritten()))
		}
	}
	res.Wall = time.Since(start)
	if cfg.Log != nil {
		cfg.Log.InfoContext(ctx, "pipeline done (incremental)",
			"wall", res.Wall, "components", res.Components,
			"base_reads", baseReads, "delta_reads", deltaReads,
			"runs_merged", runsMerged, "delta_kmers", deltaRuns)
	}
	return res, nil
}

// fillOutputFiles flattens the per-rank, per-group output paths into the
// Result's LCFiles/OtherFiles/SplitFiles fields.
func fillOutputFiles(res *Result, outFiles [][][]string, cfg Config) {
	groups := len(outFiles[0])
	res.SplitFiles = make([][]string, groups)
	for rank := 0; rank < cfg.Tasks; rank++ {
		for g := 0; g < groups; g++ {
			res.SplitFiles[g] = append(res.SplitFiles[g], outFiles[rank][g]...)
		}
	}
	res.LCFiles = res.SplitFiles[0]
	res.OtherFiles = res.SplitFiles[groups-1]
	if cfg.SplitComponents == 0 {
		res.SplitFiles = nil
	}
}
