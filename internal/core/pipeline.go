package core

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"metaprep/internal/model"
	"metaprep/internal/mpirt"
	"metaprep/internal/obsv"
	"metaprep/internal/unionfind"
)

// Message tags. Tuple exchanges are tagged per pass so a lagging task can
// never confuse two passes' messages.
const (
	tagTuples = 100 // +pass number
	tagBcast  = 2
	tagDelta  = 10 // +merge round (pipelined delta merge; rounds ≤ log₂P keep it below tagTuples)
)

// taskState is everything one simulated MPI task owns while the pipeline
// runs: its rank, communicator endpoint, kmerOut, its local disjoint-set
// instance, open input files and its accounting.
type taskState struct {
	p    *plan
	rank int
	t    *mpirt.Task
	// ctx is the run's cancellation context. Long compute phases poll it at
	// chunk and step boundaries; blocked communication is woken through the
	// world's abort propagation instead.
	ctx context.Context
	// obs is the run's collector (nil when observability is off). It is
	// the same pointer as p.cfg.Obs, cached for the instrumentation sites.
	obs *obsv.Collector

	// out is kmerOut: the two generation slots rounds alternate between.
	out   *tupleBuf
	dsu   *unionfind.DSU
	files []*os.File
	// unionAttempts sums the union attempts (retry-buffer lengths) that
	// LocalCC's and MergeCC's re-verification rounds reported, the basis
	// of the unionfind/union_races counter.
	unionAttempts uint64

	// emit, non-nil when ArtifactOut is set, collects this task's sorted
	// tuple stream into artifact part files as the passes run.
	emit *artifactEmit
	// spillCur/spillPeak gauge the spill path's resident tuple bytes (the
	// generation buffer and the bucket sink's arena); the
	// peak is exported as the extsort/peak_tuple_bytes counter the
	// budget-compliance test checks.
	spillCur, spillPeak atomic.Int64

	// exchTupleCounters[src] is the preformatted per-source-rank tuple
	// counter ("exchange/tuples[src->rank]"), resolved once at task setup
	// so the receive path never formats counter names (nil when
	// observability is off).
	exchTupleCounters []*obsv.Counter

	// rep is this task's accounting, accumulated in place as the steps
	// run. Steps, tuples, edges and iteration counts live only here —
	// TaskReport is the one per-task report type, consumed by Result,
	// the metrics snapshot and the load-balance analysis alike.
	rep      TaskReport
	freqHist [freqHistSize]uint64

	// The task's working set outside the sink, allocated once and reused
	// by every pass: chunkBufs[t] are thread t's chunk read buffers, each
	// sized to the task's largest chunk (maxChunkBytes); ccRetry[d] and
	// ccHist[d] are LocalCC thread d's retry edges and frequency bins.
	chunkBufs     [][][]byte
	maxChunkBytes int64
	ccRetry       [][]unionfind.Edge
	ccHist        [][]uint64
}

// newTaskState wires a task's rank, communicator and collector together.
func newTaskState(ctx context.Context, pl *plan, task *mpirt.Task) *taskState {
	st := &taskState{p: pl, rank: task.Rank(), t: task, ctx: ctx, obs: pl.cfg.Obs}
	st.rep.Rank = st.rank
	if st.obs != nil {
		st.obs.SetProcessName(st.rank, fmt.Sprintf("task %d", st.rank))
		st.obs.SetThreadName(st.rank, obsv.TidSteps, "steps")
		st.obs.SetThreadName(st.rank, obsv.TidComm, "mpirt comm")
		if pl.cfg.ArtifactOut != "" || pl.cfg.ArtifactIn != "" {
			st.obs.SetThreadName(st.rank, obsv.TidArtifact, "artifact")
		}
		// Per-rank-pair tuple counters (the Fig. 8 communication-imbalance
		// quantity, keyed on the receiving task), preformatted here so the
		// exchange receive path does no string formatting per message.
		st.exchTupleCounters = make([]*obsv.Counter, pl.cfg.Tasks)
		for src := range st.exchTupleCounters {
			st.exchTupleCounters[src] =
				st.counter(fmt.Sprintf("exchange/tuples[%03d->%03d]", src, st.rank))
		}
		for t := 0; t < pl.cfg.Threads; t++ {
			st.obs.SetThreadName(st.rank, obsv.TidWorker+t, fmt.Sprintf("worker %d", t))
			st.obs.SetThreadName(st.rank, obsv.TidPrefetch+t, fmt.Sprintf("prefetch %d", t))
		}
	}
	return st
}

// stepSpan records one "step"-category span on this task's step track and
// folds the duration into the rank's per-step latency histogram. Every
// call site passes the exact duration it just added to rep.Steps —
// including modeled network time — so the per-task sum of step spans
// reconciles with StepTimes.Total (the `metaprep checktrace` invariant) —
// and samples the heap at the step's end (memwatch.go). The early return
// keeps the disabled path free of the name concatenation.
func (st *taskState) stepSpan(name string, start time.Time, d time.Duration) {
	if st.obs == nil {
		return
	}
	st.obs.RecordSpan(st.rank, obsv.TidSteps, "step", name, start, d, nil)
	st.obs.Histogram(st.rank, "step/"+name).Observe(d)
	st.p.heap.sample(st.rank)
}

// counter resolves a per-rank counter (nil, a no-op, when observability
// is off). Hot loops resolve once and keep the pointer.
func (st *taskState) counter(name string) *obsv.Counter {
	return st.obs.Counter(st.rank, name)
}

// spillMemAdd moves the spill tuple-memory gauge by delta bytes, tracking
// its peak. The gauge covers the generation buffer and the bucket sink's
// arena — the memory the spill budget governs.
func (st *taskState) spillMemAdd(delta int64) {
	cur := st.spillCur.Add(delta)
	for {
		p := st.spillPeak.Load()
		if cur <= p || st.spillPeak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// finishObs registers the end-of-run counters that fall out of the task's
// accounting: volumes, memory and, when the task built a DSU, its unions
// and lost union races.
func (st *taskState) finishObs() {
	if st.obs == nil {
		return
	}
	st.counter("pipeline/tuples").Add(st.rep.Tuples)
	st.counter("pipeline/edges").Add(st.rep.Edges)
	st.counter("pipeline/bytes_sent").Add(uint64(st.rep.BytesSent))
	st.counter("mergecc/bytes_sent").Add(uint64(st.rep.MergeBytes))
	st.counter("memory/planned_bytes").Add(uint64(st.rep.MemoryBytes))
	if st.dsu != nil {
		// Every successful union removes one root; every attempt, won or
		// lost, was buffered for re-verification.
		unions := uint64(st.dsu.Len() - st.dsu.Roots())
		st.counter("unionfind/unions").Add(unions)
		st.counter("unionfind/union_races").Add(st.unionAttempts - unions)
	}
	if peak := st.spillPeak.Load(); peak > 0 {
		st.counter("extsort/peak_tuple_bytes").Add(uint64(peak))
	}
}

// freqHistSize caps the k-mer frequency spectrum the pipeline collects; the
// last bin aggregates every frequency ≥ freqHistSize-1.
const freqHistSize = 256

// TaskReport is the per-task accounting: the one report type shared by
// the pipeline's internal bookkeeping (taskState accumulates a TaskReport
// in place), Result.PerTask, the metrics snapshot (`metaprep run
// -metrics`) and the load-balance analysis (Fig. 8).
type TaskReport struct {
	Rank      int
	Steps     StepTimes
	Tuples    uint64
	Edges     uint64
	BytesSent int64
	// MergeBytes is the portion of BytesSent spent in the MergeCC tree (8
	// bytes per parent entry changed since the sender's previous round) and
	// the label broadcast (4R per hop).
	MergeBytes int64
	// CCIters is the largest Algorithm 1 iteration count across this
	// task's passes (§3.5 observes the first iteration dominates).
	CCIters int
	// MemoryBytes is the task's peak planned memory: index tables, the
	// generation slots, the receive buffer (or the spill's bucket arena),
	// the two component arrays and the FASTQ chunk buffers (§3.7's
	// inventory).
	MemoryBytes int64
	// SpillBytes is what the out-of-core LocalSort wrote to scratch on this
	// task (0 when every pass stayed in RAM) — the measured side of the
	// drift report's spill comparison.
	SpillBytes int64
	// DriftRatio is this task's total step time against the model's
	// prediction for the run (ε-smoothed, always finite; 0 when drift
	// reconciliation is off). One task drifting alone is load imbalance,
	// not model drift.
	DriftRatio float64
}

// Result is the outcome of a pipeline run.
type Result struct {
	// Labels maps every global read ID to its component root.
	Labels []uint32
	// LargestRoot and LargestSize identify the giant component.
	LargestRoot uint32
	LargestSize int
	// Components is the number of connected components.
	Components int
	// Reads is R, the number of global read IDs.
	Reads uint32
	// Steps is the element-wise maximum of per-task step times — the
	// quantity the paper's figures report.
	Steps StepTimes
	// PerTask holds each task's own accounting.
	PerTask []TaskReport
	// Wall is the end-to-end measured wall time of the run.
	Wall time.Duration
	// Tuples is the total number of (k-mer, read) tuples enumerated.
	Tuples uint64
	// Edges is the number of read-graph edges fed to union–find.
	Edges uint64
	// CCIterations is the largest Algorithm 1 iteration count any task saw.
	CCIterations int
	// KmerFreqHist is the k-mer frequency spectrum: KmerFreqHist[f] counts
	// distinct canonical k-mers of frequency f (the last bin aggregates the
	// tail). It falls out of the sorted groups and is the input to choosing
	// the §4.4 filter bounds.
	KmerFreqHist []uint64
	// MemoryPerTask is the maximum per-task memory figure.
	MemoryPerTask int64
	// LCFiles and OtherFiles list the output FASTQ files (empty when
	// OutDir was not set). With SplitComponents, LCFiles holds component
	// 0's files and OtherFiles the remainder's; SplitFiles has every group.
	LCFiles, OtherFiles []string
	// SplitFiles, indexed [group][...], lists the per-component output
	// file sets when SplitComponents > 0 (groups ordered largest first,
	// remainder last). Nil otherwise.
	SplitFiles [][]string
	// Drift is the post-run model reconciliation: measured step times and
	// byte volumes against model.Predict for this run's actual parameters.
	// Nil when Config.DriftCal is "off".
	Drift *model.DriftReport
}

// LargestFraction returns the largest component's share of all reads, the
// "LC size (% Reads)" quantity of Table 7.
func (r *Result) LargestFraction() float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.LargestSize) / float64(r.Reads)
}

// Run executes the full METAPREP pipeline under the given configuration.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled or times out,
// compute phases stop at the next chunk or step boundary, blocked ranks are
// woken through mpirt's abort propagation, and RunContext returns ctx.Err()
// with no goroutines left behind (TestRunContextCancelMidKmerGen).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	pl, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	defer pl.heap.finish()
	// The run's scratch — spill files, artifact parts, a delta artifact —
	// lives in one directory, removed on every exit path: success, error,
	// cancellation and panic unwind alike (TestSpillCancelLeavesNoRunFiles).
	scratch, err := pl.runScratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	// Artifact-driven paths replace the front half of the pipeline: a
	// reload turns a stored partition straight into a Result, and a delta
	// run merges freshly enumerated tuples against the stored base.
	if cfg.ArtifactIn != "" {
		if cfg.ArtifactDelta {
			return runIncremental(ctx, cfg, pl, scratch)
		}
		return runFromArtifact(ctx, cfg, pl)
	}
	if cfg.Log != nil {
		cfg.Log.InfoContext(ctx, "pipeline start",
			"tasks", cfg.Tasks, "threads", cfg.Threads, "passes", cfg.Passes,
			"reads", pl.idx.Reads, "tuples", pl.idx.TotalKmers, "spill", pl.spill)
	}
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return nil, err
		}
	}
	// The artifact emit tees the sorted tuple stream into part files in
	// the run's scratch as the passes run.
	var emit *artifactEmit
	if cfg.ArtifactOut != "" {
		emit = newArtifactEmit(cfg, pl, scratch)
	}

	world := mpirt.NewWorld(cfg.Tasks, cfg.Network)
	world.SetCollector(cfg.Obs)
	reports := make([]TaskReport, cfg.Tasks)
	freqHists := make([][freqHistSize]uint64, cfg.Tasks)
	outFiles := make([][][]string, cfg.Tasks) // [rank][group][thread]
	var final mergeResult

	start := time.Now()
	err = world.RunContext(ctx, func(task *mpirt.Task) error {
		st := newTaskState(ctx, pl, task)
		st.emit = emit
		sink, err := st.openPasses(scratch)
		defer st.closePasses(sink)
		if err != nil {
			return err
		}
		st.dsu = unionfind.New(int(pl.idx.Reads))

		if err := st.runPasses(sink, st.localCC); err != nil {
			return err
		}

		// The CC-I/O chunk prefetchers start before the merge so the output
		// re-read streams from disk while Merge-Comm and MergeCC are still in
		// flight. The deferred close covers the abort paths (close is
		// idempotent; writeOutput closes them itself).
		var outFetchers []*chunkFetcher
		if cfg.OutDir != "" {
			outFetchers = st.startOutputFetchers()
			defer func() {
				for _, f := range outFetchers {
					f.close()
				}
			}()
		}
		preMergeBytes := task.BytesSent()
		res := st.mergeCC()
		mergeBytes := task.BytesSent() - preMergeBytes
		if st.rank == 0 {
			final = res
		}
		if cfg.OutDir != "" {
			if err := ctx.Err(); err != nil {
				return err
			}
			paths, err := st.writeOutput(res, outFetchers)
			if err != nil {
				return err
			}
			outFiles[st.rank] = paths
		}

		freqHists[st.rank] = st.freqHist
		st.rep.BytesSent = task.BytesSent()
		st.rep.MergeBytes = mergeBytes
		st.rep.MemoryBytes = st.memoryBytes(sink)
		st.finishObs()
		reports[st.rank] = st.rep
		return nil
	})
	if err != nil {
		if cfg.Log != nil {
			cfg.Log.ErrorContext(ctx, "pipeline failed",
				"err", err, "wall", time.Since(start))
		}
		return nil, err
	}

	res := &Result{
		Labels:      final.labels,
		LargestRoot: final.largestRoot,
		LargestSize: final.largestSize,
		Reads:       pl.idx.Reads,
		Steps:       MaxOf(stepsOf(reports)),
		PerTask:     reports,
		Wall:        time.Since(start),
	}
	comps := make(map[uint32]int)
	for _, l := range final.labels {
		comps[l]++
	}
	res.Components = len(comps)
	singletons := 0
	for _, n := range comps {
		if n == 1 {
			singletons++
		}
	}
	for _, rep := range reports {
		res.Tuples += rep.Tuples
		res.Edges += rep.Edges
		if rep.MemoryBytes > res.MemoryPerTask {
			res.MemoryPerTask = rep.MemoryBytes
		}
	}
	if cfg.OutDir != "" {
		fillOutputFiles(res, outFiles, cfg)
	}
	for _, rep := range reports {
		if rep.CCIters > res.CCIterations {
			res.CCIterations = rep.CCIters
		}
	}
	res.KmerFreqHist = make([]uint64, freqHistSize)
	for rank := range freqHists {
		for f, c := range freqHists[rank] {
			res.KmerFreqHist[f] += c
		}
	}
	// Assemble the artifact once the result is complete: the k-mer parts
	// are copied verbatim, labels and histogram come from the Result, and
	// the file appears atomically (temp + rename) only on success.
	if emit != nil {
		if err := emit.assemble(cfg, pl, res); err != nil {
			return nil, err
		}
	}
	var nonSingletonFrac float64
	if pl.idx.Reads > 0 {
		nonSingletonFrac = float64(int(pl.idx.Reads)-singletons) / float64(pl.idx.Reads)
	}
	reconcileDrift(cfg, res, nonSingletonFrac)
	if cfg.Log != nil {
		attrs := []any{
			"wall", res.Wall, "components", res.Components,
			"largest_frac", res.LargestFraction(), "step_total", res.Steps.Total(),
		}
		if res.Drift != nil {
			attrs = append(attrs, "drift_total", res.Drift.TotalRatio)
		}
		cfg.Log.InfoContext(ctx, "pipeline done", attrs...)
	}
	return res, nil
}

// stepsOf projects the step times out of the reports.
func stepsOf(reports []TaskReport) []StepTimes {
	ts := make([]StepTimes, len(reports))
	for i := range reports {
		ts[i] = reports[i].Steps
	}
	return ts
}

// memoryBytes tallies this task's planned memory per the §3.7 inventory:
// index tables (replicated), kmerOut's two generation slots and the sink
// (the receive buffer with its slot tables and bin-sort scratch, or the
// spill's bucket arena and bucket tables), the component
// array p and the received array p′
// (4R each), and the chunk read buffers — with the overlapped-I/O
// prefetcher, each thread circulates 1+PrefetchChunks buffers instead of
// one, and the inventory charges them all.
func (st *taskState) memoryBytes(sink tupleSink) int64 {
	idx := st.p.idx
	mem := idx.MemoryBytes()
	mem += st.out.memBytes()
	mem += sink.memBytes()
	mem += 2 * 4 * int64(idx.Reads)
	buffersPerThread := int64(1 + st.p.cfg.prefetchDepth())
	mem += int64(st.p.cfg.Threads) * buffersPerThread * st.maxChunkBytes
	// SnapshotDelta's shadow baseline (lazily allocated on senders).
	mem += 4 * int64(idx.Reads)
	return mem
}

// startOutputFetchers spins up one chunk prefetcher per thread over that
// thread's CC-I/O chunk list. Called before mergeCC, so the first
// prefetch-depth chunks are read while the merge tree and label broadcast
// run. The fetchers reuse the KmerGen prefetch tracks in the trace and the
// KmerGen chunk buffers (the KmerGen readers are finished by now).
func (st *taskState) startOutputFetchers() []*chunkFetcher {
	cfg := st.p.cfg
	fs := make([]*chunkFetcher, cfg.Threads)
	for t := range fs {
		fs[t] = newChunkFetcher(st.p.threadChunks[st.rank][t], st.p.idx, st.files,
			cfg.prefetchDepth(), st.chunkBufs[t], st.obs, st.rank, obsv.TidPrefetch+t)
	}
	return fs
}

// MergeLC concatenates all largest-component output files into one FASTQ
// and all remainder files into another, returning the two paths. It is a
// convenience for feeding the partitions to an assembler.
func MergeLC(res *Result, lcPath, otherPath string) error {
	if len(res.LCFiles) == 0 {
		return fmt.Errorf("core: result has no output files (OutDir was not set)")
	}
	if err := concatFiles(lcPath, res.LCFiles); err != nil {
		return err
	}
	return concatFiles(otherPath, res.OtherFiles)
}
