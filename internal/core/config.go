// Package core implements the METAPREP pipeline (§3): KmerGen,
// KmerGen-Comm, LocalSort, LocalCC and MergeCC, orchestrated over a set of
// simulated MPI tasks with a configurable number of threads each, in one or
// more I/O passes over the input.
//
// The package is deliberately structured the way the paper describes the
// tool: a static plan derived from the IndexCreate tables precomputes every
// buffer size and write offset (so threads never synchronize on shared
// buffers), and each step is a separate, separately-timed phase.
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"metaprep/internal/index"
	"metaprep/internal/kmer"
	"metaprep/internal/mpirt"
	"metaprep/internal/obsv"
)

// Filter is the k-mer frequency filter of §4.4: read-graph edges are only
// generated from a k-mer whose dataset-wide frequency f satisfies
// Min ≤ f ≤ Max. Zero values disable the corresponding bound. The zero
// Filter generates edges from every shared k-mer (the paper's "None").
type Filter struct {
	Min, Max uint32
}

// Keep reports whether a k-mer with frequency f passes the filter.
func (fl Filter) Keep(f uint32) bool {
	if fl.Min > 0 && f < fl.Min {
		return false
	}
	if fl.Max > 0 && f > fl.Max {
		return false
	}
	return true
}

// String renders the filter the way the paper's tables label it.
func (fl Filter) String() string {
	switch {
	case fl.Min == 0 && fl.Max == 0:
		return "None"
	case fl.Min == 0:
		return fmt.Sprintf("KF<=%d", fl.Max)
	case fl.Max == 0:
		return fmt.Sprintf("KF>=%d", fl.Min)
	default:
		return fmt.Sprintf("%d<=KF<=%d", fl.Min, fl.Max)
	}
}

// Config parameterizes a pipeline run.
type Config struct {
	// Index is the prebuilt IndexCreate output for the input files.
	Index *index.Index
	// Tasks is P, the number of simulated MPI tasks.
	Tasks int
	// Threads is T, the worker threads per task.
	Threads int
	// Passes is S, the number of I/O passes (≥ 1). More passes reduce the
	// per-task tuple-buffer footprint proportionally (§3.7).
	Passes int
	// Filter restricts which k-mer frequencies generate read-graph edges.
	Filter Filter
	// CCOpt enables the multi-pass LocalCC optimization of §3.5.1:
	// from the second pass on, tuples carry the read's current component ID
	// instead of its read ID, concentrating Find lookups on component
	// roots. It has no effect on single-pass runs.
	CCOpt bool
	// Network models inter-task transfer costs (nil: free communication).
	Network *mpirt.NetworkModel
	// OutDir receives the partitioned FASTQ output (one largest-component
	// and one remainder file per thread, §3.6). Empty skips the output
	// step, producing component labels only.
	OutDir string
	// SplitComponents, when > 0, writes the N largest components to
	// separate output file sets (component 0, 1, …) plus a remainder set,
	// instead of the paper's largest-vs-rest split — the "alternate
	// component-splitting strategies" of the paper's future work. 0 keeps
	// the paper's behavior.
	SplitComponents int
	// PrefetchChunks is the per-thread read-ahead depth of KmerGen's chunk
	// prefetcher: while a thread enumerates tuples from one chunk, an
	// asynchronous reader fills up to PrefetchChunks further chunk buffers,
	// overlapping input I/O with k-mer enumeration (the CC-I/O output
	// re-read rides the same prefetcher). 0 means the default: depth 1
	// (classic double buffering), or serial reads on the enumerating thread
	// when the host has a single CPU. Each thread holds 1+depth chunk
	// buffers, which the §3.7 memory accounting charges accordingly.
	PrefetchChunks int
	// SpillBudgetBytes, when > 0, caps the resident tuple memory per task.
	// When a pass's received partition would exceed the cap, the pass goes
	// out-of-core: KmerGen and the exchange run in rounds of chunks sized to
	// one of two budget/8 generation slots (at least one index chunk per
	// round), the exchange appends every tuple, raw, to its bucket — a run
	// of consecutive m-mer bins whose exact count the index gives — in a
	// per-rank spill file, and each LocalCC thread loads its buckets one at
	// a time, sorts each in cache and consumes it in place. A bin larger
	// than a bucket area (the bin floor) exceeds the cap by the excess.
	// Results are bit-identical to the in-RAM path (the spill parity suite
	// pins this). 0 disables spilling. Budgets below MinSpillBudgetBytes are
	// a validation error.
	SpillBudgetBytes int64
	// SpillDir is the root of the run's scratch: a run that has scratch to
	// hold (spill files, ArtifactOut's parts, an ArtifactDelta run's delta
	// artifact) creates one metaprep-run-* directory beneath it and removes
	// it on every exit path; SweepScratch reclaims what a crashed process
	// left behind. Empty uses the OS temp dir. Like Pool, it never affects
	// results and is excluded from CanonicalHash.
	SpillDir string
	// ArtifactOut, when set, writes a persistent partition artifact
	// (internal/artifact format v1) to this path: the globally sorted
	// canonical k-mer tuple stream, the component label map, the frequency
	// histogram and the run's provenance. The tuple stream is teed off the
	// existing LocalSort/merge data paths — no second enumeration pass. The
	// path's directory must exist and be writable. Where the artifact lands
	// never affects results, so the path is excluded from CanonicalHash
	// (whether one is written at all is too: the labels are identical).
	ArtifactOut string
	// ArtifactIn, when set, loads a previously written partition artifact
	// instead of running KmerGen/exchange/sort/CC. Without ArtifactDelta the
	// artifact must match this run's index (digest, read count) and filter —
	// the stored labels are the result, and output writing proceeds as
	// usual. A mismatch fails with an error wrapping artifact.ErrMismatch.
	ArtifactIn string
	// ArtifactDelta switches ArtifactIn to incremental repartitioning:
	// Index names only the NEW (delta) FASTQ files, the artifact holds the
	// base partition, and the run k-way-merges the delta's sorted runs
	// against the stored runs, unioning only the new edges into the
	// reloaded DSU. Requires ArtifactIn; incompatible with Filter.Max
	// (an upper frequency bound can retroactively disqualify base edges,
	// which a union-only structure cannot express). Delta read IDs follow
	// the base's: global read r of the delta index becomes base.Reads + r.
	ArtifactDelta bool
	// Pool, when non-nil, supplies and reclaims the per-task tuple buffers
	// (kmerOut's generation slots, the in-RAM receive buffer, the spill's
	// bucket arena) so back-to-back runs — the daemon's jobs — reuse
	// multi-GB slices instead of reallocating them. Never affects results
	// and is excluded from CanonicalHash.
	Pool *TuplePool
	// Obs, when non-nil, collects per-step spans (exported as a
	// Perfetto-loadable Chrome trace) and typed counters (bytes read,
	// tuples exchanged per rank pair, radix passes, union–find operation
	// mix, …) for the run. The nil default is a no-op collector: the hot
	// path stays allocation-free and benchmark-neutral (see
	// BenchmarkPipelineObsv and EXPERIMENTS.md).
	Obs *obsv.Collector
	// DriftCal selects the calibration the post-run drift reconciliation
	// predicts with: "edison" (default, also ""), "ganga", or "off" to skip
	// reconciliation entirely. After every run the measured per-step times
	// and byte volumes are compared against model.Predict for this run's
	// actual Workload/Cluster parameters; the report lands in Result.Drift.
	// Never affects pipeline results and is excluded from CanonicalHash.
	DriftCal string
	// Log, when non-nil, receives structured run-lifecycle records (start,
	// finish, failure) with the job correlation ID from the context when the
	// caller threaded one through obsv.WithJobID. Nil logs nothing. Never
	// affects results and is excluded from CanonicalHash.
	Log *slog.Logger
}

// Default returns a single-task configuration with sensible defaults for
// the given index: one pass, one thread, and the multi-pass optimization on.
func Default(idx *index.Index) Config {
	return Config{Index: idx, Tasks: 1, Threads: 1, Passes: 1, CCOpt: true}
}

// ErrInvalidConfig is the sentinel every Config validation error wraps, so
// callers (the CLI, the job service's 400 path) can classify a bad
// configuration with a single errors.Is instead of pattern-matching
// messages.
var ErrInvalidConfig = errors.New("core: invalid config")

// ConfigError is a typed validation failure: the offending field plus a
// human-readable reason. It wraps ErrInvalidConfig (errors.Is matches) so a
// service can reject the job with a clean 400 instead of panicking deep in
// the pipeline.
type ConfigError struct {
	// Field names the Config (or embedded IndexOptions) field that failed.
	Field string
	// Reason describes the violated invariant.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid config: %s: %s", e.Field, e.Reason)
}

// Unwrap ties every ConfigError to the ErrInvalidConfig sentinel.
func (e *ConfigError) Unwrap() error { return ErrInvalidConfig }

// Validate checks configuration invariants. Every failure is returned as a
// *ConfigError wrapping ErrInvalidConfig.
func (c Config) Validate() error {
	if c.Index == nil {
		return &ConfigError{Field: "Index", Reason: "nil index"}
	}
	opts := c.Index.Opts
	if err := kmer.CheckK128(opts.K); err != nil {
		return &ConfigError{Field: "Index.Opts.K",
			Reason: fmt.Sprintf("k=%d out of range for the 64/128-bit k-mer paths (1..%d)", opts.K, kmer.MaxK128)}
	}
	if opts.M >= opts.K {
		return &ConfigError{Field: "Index.Opts.M",
			Reason: fmt.Sprintf("m=%d ≥ k=%d: the m-mer prefix must be shorter than the k-mer", opts.M, opts.K)}
	}
	if err := opts.Validate(); err != nil {
		return &ConfigError{Field: "Index.Opts", Reason: err.Error()}
	}
	if c.Tasks < 1 {
		return &ConfigError{Field: "Tasks", Reason: fmt.Sprintf("%d < 1", c.Tasks)}
	}
	if c.Threads < 1 {
		return &ConfigError{Field: "Threads", Reason: fmt.Sprintf("%d < 1", c.Threads)}
	}
	if c.Passes < 1 {
		return &ConfigError{Field: "Passes", Reason: fmt.Sprintf("%d < 1", c.Passes)}
	}
	if c.Filter.Min > 0 && c.Filter.Max > 0 && c.Filter.Min > c.Filter.Max {
		return &ConfigError{Field: "Filter",
			Reason: fmt.Sprintf("min %d > max %d", c.Filter.Min, c.Filter.Max)}
	}
	if c.SplitComponents < 0 {
		return &ConfigError{Field: "SplitComponents", Reason: fmt.Sprintf("%d < 0", c.SplitComponents)}
	}
	if c.PrefetchChunks < 0 {
		return &ConfigError{Field: "PrefetchChunks", Reason: fmt.Sprintf("%d < 0", c.PrefetchChunks)}
	}
	if c.SpillBudgetBytes < 0 {
		return &ConfigError{Field: "SpillBudgetBytes", Reason: fmt.Sprintf("%d < 0", c.SpillBudgetBytes)}
	}
	if c.SpillBudgetBytes > 0 && c.SpillBudgetBytes < MinSpillBudgetBytes {
		return &ConfigError{Field: "SpillBudgetBytes",
			Reason: fmt.Sprintf("%d below the %d-byte minimum (generation slots, write buffers and bucket areas cannot fit a smaller cap)",
				c.SpillBudgetBytes, MinSpillBudgetBytes)}
	}
	if c.SpillDir != "" {
		if err := checkSpillDir(c.SpillDir); err != nil {
			return &ConfigError{Field: "SpillDir", Reason: err.Error()}
		}
	}
	if c.ArtifactDelta && c.ArtifactIn == "" {
		return &ConfigError{Field: "ArtifactDelta", Reason: "requires ArtifactIn (the base partition artifact)"}
	}
	if c.ArtifactDelta && c.Filter.Max > 0 {
		return &ConfigError{Field: "ArtifactDelta",
			Reason: fmt.Sprintf("incompatible with Filter.Max=%d: new occurrences can push a base k-mer over the bound, and edges already merged into the base labels cannot be retracted", c.Filter.Max)}
	}
	if c.ArtifactIn != "" && c.ArtifactOut != "" && !c.ArtifactDelta {
		return &ConfigError{Field: "ArtifactOut",
			Reason: "reloading an artifact (ArtifactIn without ArtifactDelta) skips tuple enumeration, so there is no stream to write; copy the input artifact instead"}
	}
	if c.ArtifactOut != "" {
		dir := filepath.Dir(c.ArtifactOut)
		if err := checkSpillDir(dir); err != nil {
			return &ConfigError{Field: "ArtifactOut", Reason: err.Error()}
		}
	}
	if _, _, err := driftCalibration(c.DriftCal); err != nil {
		return &ConfigError{Field: "DriftCal", Reason: err.Error()}
	}
	return nil
}

// MinSpillBudgetBytes is the smallest accepted SpillBudgetBytes: below it
// the generation slots, the bucket write buffers and the bucket areas
// degenerate to rounds and buckets of a handful of tuples and the spill
// machinery costs more memory in bookkeeping than it saves.
const MinSpillBudgetBytes = 64 << 10

// checkSpillDir verifies the spill directory exists, is a directory, and is
// writable — by creating and removing a probe file, the only check that
// works across permission models.
func checkSpillDir(dir string) error {
	st, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("not usable: %v", err)
	}
	if !st.IsDir() {
		return fmt.Errorf("%s is not a directory", dir)
	}
	probe, err := os.CreateTemp(dir, ".metaprep-probe-*")
	if err != nil {
		return fmt.Errorf("not writable: %v", err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return nil
}

// prefetchDepth returns the effective chunk read-ahead depth: 0 (serial
// reads on the consuming thread) when the host has a single schedulable CPU
// — a reader goroutine cannot overlap anything there, it only adds two
// context switches per chunk — otherwise PrefetchChunks with 0 defaulting to
// 1 (double buffering). An explicit PrefetchChunks overrides the single-CPU
// gate so the overlap machinery stays testable everywhere.
func (c Config) prefetchDepth() int {
	if c.PrefetchChunks > 0 {
		return c.PrefetchChunks
	}
	if runtime.GOMAXPROCS(0) == 1 {
		return 0
	}
	return 1
}

// StepTimes holds per-step wall times using the paper's step names
// (Fig. 5–7). Communication steps include modeled network transfer time
// when a NetworkModel is configured.
type StepTimes struct {
	KmerGenIO   time.Duration // reading FASTQ chunks (with prefetch: only non-overlapped wait time)
	KmerGen     time.Duration // enumerating tuples
	KmerGenComm time.Duration // all-to-all tuple exchange
	LocalSort   time.Duration // partition + per-thread radix sort
	LocalCC     time.Duration // union–find over sorted runs
	MergeComm   time.Duration // component-array transfers in the merge tree
	MergeCC     time.Duration // folding received component arrays
	CCIO        time.Duration // writing partitioned FASTQ output
}

// Total sums all steps.
func (s StepTimes) Total() time.Duration {
	return s.KmerGenIO + s.KmerGen + s.KmerGenComm + s.LocalSort +
		s.LocalCC + s.MergeComm + s.MergeCC + s.CCIO
}

// Each visits every step in pipeline order with the paper's display name
// (Fig. 5–7 labels) — the single source of truth for step rendering in
// the CLI table, the metrics output and the trace span names.
func (s StepTimes) Each(fn func(name string, d time.Duration)) {
	fn("KmerGen-I/O", s.KmerGenIO)
	fn("KmerGen", s.KmerGen)
	fn("KmerGen-Comm", s.KmerGenComm)
	fn("LocalSort", s.LocalSort)
	fn("LocalCC", s.LocalCC)
	fn("Merge-Comm", s.MergeComm)
	fn("MergeCC", s.MergeCC)
	fn("CC-I/O", s.CCIO)
}

// Add accumulates other into s (used to fold per-pass times).
func (s *StepTimes) Add(o StepTimes) {
	s.KmerGenIO += o.KmerGenIO
	s.KmerGen += o.KmerGen
	s.KmerGenComm += o.KmerGenComm
	s.LocalSort += o.LocalSort
	s.LocalCC += o.LocalCC
	s.MergeComm += o.MergeComm
	s.MergeCC += o.MergeCC
	s.CCIO += o.CCIO
}

// MaxOf returns the element-wise maximum over per-task step times — the
// quantity the paper's stacked bar charts report.
func MaxOf(ts []StepTimes) StepTimes {
	var m StepTimes
	for _, t := range ts {
		m.KmerGenIO = maxDur(m.KmerGenIO, t.KmerGenIO)
		m.KmerGen = maxDur(m.KmerGen, t.KmerGen)
		m.KmerGenComm = maxDur(m.KmerGenComm, t.KmerGenComm)
		m.LocalSort = maxDur(m.LocalSort, t.LocalSort)
		m.LocalCC = maxDur(m.LocalCC, t.LocalCC)
		m.MergeComm = maxDur(m.MergeComm, t.MergeComm)
		m.MergeCC = maxDur(m.MergeCC, t.MergeCC)
		m.CCIO = maxDur(m.CCIO, t.CCIO)
	}
	return m
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
