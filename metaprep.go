// Package metaprep is a Go reproduction of METAPREP (Rengasamy, Medvedev,
// Madduri — "Parallel and Memory-efficient Preprocessing for Metagenome
// Assembly", IPDPS Workshops 2017): a parallel, memory-bounded tool that
// partitions a metagenomic read set into connected components of its read
// graph so each component can be assembled independently.
//
// The package is a facade over the implementation packages:
//
//   - BuildIndex / LoadIndex run IndexCreate (§3.1), producing the merHist
//     and FASTQPart tables that make every later step statically
//     schedulable.
//   - Partition runs the five-step pipeline (§3.2–§3.6): KmerGen,
//     KmerGen-Comm, LocalSort, LocalCC and MergeCC, over P simulated MPI
//     tasks with T threads each in S input passes, optionally filtering
//     read-graph edges by k-mer frequency and writing the partitioned
//     FASTQ output.
//   - Generate creates synthetic metagenome datasets (stand-ins for the
//     paper's NCBI/JGI data), with presets scaled from Table 2.
//   - Assemble runs the de Bruijn unitig assembler used as the MEGAHIT
//     stand-in for the Tables 8–9 experiments.
//   - CountKmers runs the KMC 2-style baseline counter of Figure 9.
//   - Predict evaluates the §3.7 cost model for cluster configurations
//     that do not exist on the local machine.
//
// A minimal end-to-end use:
//
//	idx, err := metaprep.BuildIndex(files, metaprep.DefaultIndexOptions())
//	cfg := metaprep.DefaultConfig(idx)
//	cfg.Threads = 8
//	cfg.OutDir = "parts/"
//	res, err := metaprep.Partition(cfg)
//	// res.Labels, res.LargestSize, res.Steps, res.LCFiles ...
package metaprep

import (
	"context"
	"io"
	"time"

	"metaprep/internal/artifact"
	"metaprep/internal/assembly"
	"metaprep/internal/core"
	"metaprep/internal/diginorm"
	"metaprep/internal/fastq"
	"metaprep/internal/index"
	"metaprep/internal/kmc"
	"metaprep/internal/model"
	"metaprep/internal/mpirt"
	"metaprep/internal/obsv"
	"metaprep/internal/simulate"
)

// Index creation (§3.1).
type (
	// IndexOptions configures IndexCreate: k, the m-mer histogram width,
	// the chunk size and paired-end mode.
	IndexOptions = index.Options
	// Index is the merHist + FASTQPart table pair.
	Index = index.Index
)

// DefaultIndexOptions returns k=27, m=8, 4 MiB chunks, unpaired.
func DefaultIndexOptions() IndexOptions { return index.Defaults() }

// BuildIndex runs the sequential IndexCreate step (the Table 5 variant).
func BuildIndex(files []string, opts IndexOptions) (*Index, error) {
	return index.Build(files, opts)
}

// BuildIndexParallel parallelizes the histogram phase over chunks.
func BuildIndexParallel(files []string, opts IndexOptions, workers int) (*Index, error) {
	return index.BuildParallel(files, opts, workers)
}

// LoadIndex reads an index saved with Index.Save.
func LoadIndex(path string) (*Index, error) { return index.Load(path) }

// Pipeline (§3.2–§3.6).
type (
	// Config parameterizes a pipeline run: tasks, threads, passes, the
	// k-mer frequency filter, the network model and output directory.
	Config = core.Config
	// Filter is the §4.4 k-mer frequency edge filter.
	Filter = core.Filter
	// Result carries component labels, sizes, per-step times and output
	// file lists.
	Result = core.Result
	// StepTimes breaks a run down by pipeline step.
	StepTimes = core.StepTimes
	// TaskReport is one task's timing/memory accounting.
	TaskReport = core.TaskReport
	// NetworkModel charges simulated transfer time to communication steps.
	NetworkModel = mpirt.NetworkModel
)

// DefaultConfig returns a single-task, single-pass configuration.
func DefaultConfig(idx *Index) Config { return core.Default(idx) }

// Partition runs the METAPREP pipeline.
func Partition(cfg Config) (*Result, error) { return core.Run(cfg) }

// PartitionContext is Partition with cancellation: when ctx is cancelled or
// times out, compute threads stop at the next chunk or step boundary,
// blocked ranks wake through the runtime's abort propagation, and the call
// returns ctx.Err() promptly with no goroutines leaked. This is what lets a
// job service cancel a running partition instead of abandoning it.
func PartitionContext(ctx context.Context, cfg Config) (*Result, error) {
	return core.RunContext(ctx, cfg)
}

// ConfigError is a typed Config validation failure (field + reason). It
// wraps ErrInvalidConfig, so services can classify bad requests with one
// errors.Is and return a clean 400 instead of failing deep in the pipeline.
type ConfigError = core.ConfigError

// ErrInvalidConfig is the sentinel every ConfigError wraps.
var ErrInvalidConfig = core.ErrInvalidConfig

// MinSpillBudgetBytes is the smallest accepted Config.SpillBudgetBytes: the
// out-of-core path needs room for a generation buffer and three bounded run
// builders plus merge read-ahead blocks, so budgets below 64 KiB are
// rejected at validation.
const MinSpillBudgetBytes = core.MinSpillBudgetBytes

// AutoSpillBudget discovers a per-rank spill budget from the memory the
// host actually grants this process (cgroup v2/v1 limits, then
// /proc/meminfo MemAvailable): half the limit divided across tasks,
// floored at MinSpillBudgetBytes. Returns 0 when nothing is discoverable
// (treat as "stay in RAM").
func AutoSpillBudget(tasks int) int64 { return core.AutoSpillBudget(tasks) }

// ValidateConfig checks a pipeline configuration, returning a *ConfigError
// for the first violated invariant (nil index, k out of the 64/128-bit
// ranges, m ≥ k, tasks/threads/passes < 1, inverted filter bounds, …).
func ValidateConfig(cfg Config) error { return cfg.Validate() }

// PipelineCountResult is the distributed counter's sorted output.
type PipelineCountResult = core.CountResult

// CountKmersDistributed runs the pipeline's first three steps (KmerGen,
// KmerGen-Comm, LocalSort) as a distributed k-mer counter — the subroutine
// reuse the paper's abstract claims. Compare with CountKmers, the KMC
// 2-style shared-memory baseline. SpillBudgetBytes applies as in Partition.
func CountKmersDistributed(cfg Config) (*PipelineCountResult, error) {
	return core.RunCount(cfg)
}

// MergeOutput concatenates a result's per-thread output files into one
// largest-component FASTQ and one remainder FASTQ.
func MergeOutput(res *Result, lcPath, otherPath string) error {
	return core.MergeLC(res, lcPath, otherPath)
}

// SaveLabels persists a component label array (read ID → component root)
// so downstream tools can reuse a partitioning without the FASTQ rewrite.
func SaveLabels(path string, labels []uint32) error { return core.SaveLabels(path, labels) }

// LoadLabels reads a label array written by SaveLabels.
func LoadLabels(path string) ([]uint32, error) { return core.LoadLabels(path) }

// EdisonNetwork models the interconnect of the paper's evaluation machine.
func EdisonNetwork() *NetworkModel { return mpirt.EdisonNetwork() }

// Persistent partition artifacts. A run with Config.ArtifactOut set writes
// its sorted k-mer tuple runs, label map, frequency histogram and
// provenance into one versioned binary file; a later run with
// Config.ArtifactIn reloads the partitioning without re-enumerating the
// FASTQ, and with Config.ArtifactDelta it merges a small delta read set
// into the stored base incrementally.
type (
	// Artifact reads a .mpa partition/k-mer-set artifact.
	Artifact = artifact.Reader
	// ArtifactMeta is the provenance record stored in an artifact.
	ArtifactMeta = artifact.Meta
	// ArtifactInfo is the inspection report of OpenArtifactInfo.
	ArtifactInfo = artifact.InfoData
	// ArtifactSetOpStats reports tuple flow through a set operation.
	ArtifactSetOpStats = artifact.SetOpStats
)

// Typed artifact failures: ErrBadArtifact for structural corruption (bad
// magic, truncated sections, CRC mismatches), ErrArtifactMismatch for a
// well-formed artifact that does not belong to the requested index/filter.
var (
	ErrBadArtifact      = artifact.ErrBadArtifact
	ErrArtifactMismatch = artifact.ErrMismatch
)

// OpenArtifact opens an artifact for reading (validating magic, TOC and
// metadata).
func OpenArtifact(path string) (*Artifact, error) { return artifact.Open(path) }

// OpenArtifactInfo inspects an artifact without loading its sections; with
// verify set it also CRC-checks every section.
func OpenArtifactInfo(path string, verify bool) (ArtifactInfo, error) {
	return artifact.Info(path, verify)
}

// ArtifactUnion writes a k-mer-set artifact holding the distinct k-mers
// appearing in any input artifact.
func ArtifactUnion(out string, inputs []string) (ArtifactSetOpStats, error) {
	return artifact.Union(out, inputs)
}

// ArtifactIntersect writes the distinct k-mers appearing in every input.
func ArtifactIntersect(out string, inputs []string) (ArtifactSetOpStats, error) {
	return artifact.Intersect(out, inputs)
}

// ArtifactDiff writes the distinct k-mers of the first input that appear
// in none of the rest.
func ArtifactDiff(out string, inputs []string) (ArtifactSetOpStats, error) {
	return artifact.Diff(out, inputs)
}

// Observability (spans, counters, trace export).
type (
	// Collector gathers per-step spans and typed counters during a run.
	// Assign one to Config.Obs, then export with SaveTrace / Counters /
	// CountersTable after Partition returns. A nil Config.Obs keeps the
	// pipeline's hot path entirely free of observability overhead.
	Collector = obsv.Collector
	// CounterValue is one row of a counter snapshot.
	CounterValue = obsv.CounterValue
)

// NewCollector returns an empty, enabled Collector.
func NewCollector() *Collector { return obsv.New() }

// Synthetic data (the Table 2 stand-ins).
type (
	// CommunitySpec describes a synthetic metagenome.
	CommunitySpec = simulate.CommunitySpec
	// Dataset is a generated community with its ground truth.
	Dataset = simulate.Dataset
)

// Generate writes a synthetic dataset under dir.
func Generate(spec CommunitySpec, dir string) (*Dataset, error) {
	return simulate.Generate(spec, dir)
}

// Preset returns a named dataset spec ("HG", "LL", "MM", "IS") at the given
// scale (1.0 = the standard ~1000×-scaled size).
func Preset(name string, scale float64) (CommunitySpec, error) {
	return simulate.Preset(name, scale)
}

// PresetNames lists the presets in Table 2's order.
func PresetNames() []string { return simulate.PresetNames() }

// Assembly (the MEGAHIT stand-in of Tables 8–9).
type (
	// AssemblyOptions configures the unitig assembler.
	AssemblyOptions = assembly.Options
	// AssemblyStats reports contig count, total/max length and N50.
	AssemblyStats = assembly.Stats
)

// DefaultAssemblyOptions returns MEGAHIT-style multi-k assembly
// (k = 21, 29, 39, 59) with MinCount=2.
func DefaultAssemblyOptions() AssemblyOptions { return assembly.Defaults() }

// Assemble builds contigs from read sequences.
func Assemble(seqs [][]byte, opts AssemblyOptions) ([][]byte, AssemblyStats, error) {
	return assembly.Assemble(seqs, opts)
}

// AssembleFiles assembles the reads of FASTQ files.
func AssembleFiles(paths []string, opts AssemblyOptions) ([][]byte, AssemblyStats, error) {
	return assembly.AssembleFiles(paths, opts)
}

// K-mer counting baseline (Figure 9).
type (
	// CounterOptions configures the KMC 2-style counter.
	CounterOptions = kmc.Options
	// KmerCounts is the sorted (k-mer, count) output.
	KmerCounts = kmc.Counts
	// CounterStats reports the two stage times and compaction figures.
	CounterStats = kmc.Stats
)

// DefaultCounterOptions mirrors KMC 2's defaults at k=27.
func DefaultCounterOptions() CounterOptions { return kmc.Defaults() }

// CountKmers counts canonical k-mers across FASTQ files.
func CountKmers(paths []string, opts CounterOptions) (*KmerCounts, *CounterStats, error) {
	return kmc.CountFiles(paths, opts)
}

// Performance model (§3.7).
type (
	// Workload describes a dataset to the cost model.
	Workload = model.Workload
	// ClusterSpec is a (tasks, threads, passes) configuration.
	ClusterSpec = model.Cluster
	// Calibration holds machine constants for the model.
	Calibration = model.Calibration
	// PredictedSteps is the model's per-step prediction.
	PredictedSteps = model.Steps
	// DriftReport compares a run's measured step times and byte volumes
	// against the model's prediction (Result.Drift carries one per run).
	DriftReport = model.DriftReport
	// MeasuredRun is the measured side of a drift reconciliation.
	MeasuredRun = model.Measured
)

// Reconcile compares a measured run against the model's prediction. The
// pipeline does this automatically after every run (Config.DriftCal); this
// export serves offline what-if comparisons.
func Reconcile(cal Calibration, w Workload, c ClusterSpec, m MeasuredRun) DriftReport {
	return model.Reconcile(cal, w, c, m)
}

// Predict evaluates the §3.7 cost model.
func Predict(cal Calibration, w Workload, c ClusterSpec) PredictedSteps {
	return model.Predict(cal, w, c)
}

// PredictMemory evaluates the §3.7 per-task memory inventory.
func PredictMemory(w Workload, c ClusterSpec) int64 { return model.MemoryPerTask(w, c) }

// PredictMergeWireBytes returns the modeled MergeCC + label-broadcast wire
// volume for a cluster — the quantity the pipelined delta tree merge shrinks
// versus the dense star schedule.
func PredictMergeWireBytes(w Workload, c ClusterSpec) int64 { return model.MergeWireBytes(w, c) }

// PredictArtifactBytes models the on-disk size of a partition artifact.
func PredictArtifactBytes(w Workload) int64 { return model.ArtifactBytes(w) }

// PredictArtifactWrite models the cost an artifact emit adds to a run
// (only the final sequential assembly — the tuple tee overlaps LocalCC).
func PredictArtifactWrite(cal Calibration, w Workload) time.Duration {
	return model.ArtifactWriteSeconds(cal, w)
}

// PredictArtifactReload models satisfying a run from a stored artifact.
func PredictArtifactReload(cal Calibration, w Workload) time.Duration {
	return model.ArtifactReloadSeconds(cal, w)
}

// PredictIncremental models an incremental repartitioning: the pipeline
// over the delta alone plus the streaming base/delta artifact merge.
func PredictIncremental(cal Calibration, base, delta Workload, c ClusterSpec) time.Duration {
	return model.PredictIncremental(cal, base, delta, c)
}

// IncrementalCrossover returns the delta fraction below which merging into
// a stored artifact is predicted faster than recomputing from scratch —
// which shrinks as the cluster widens, because the full pipeline
// parallelizes while the merge is a single stream.
func IncrementalCrossover(cal Calibration, w Workload, c ClusterSpec) float64 {
	return model.IncrementalCrossover(cal, w, c)
}

// PredictQuerySeconds estimates the service time of one query-tier batch
// of n k-mer probes against a lookup holding keys distinct k-mers.
func PredictQuerySeconds(cal Calibration, keys uint64, batch int) time.Duration {
	return model.PredictQuerySeconds(cal, keys, batch)
}

// PredictServeQPS estimates the sustained closed-loop request rate of the
// metaprepd query tier at the given concurrency, key count and batch size.
func PredictServeQPS(cal Calibration, conc int, keys uint64, batch int) float64 {
	return model.PredictServeQPS(cal, conc, keys, batch)
}

// EdisonCalibration returns constants fitted to the paper's measurements.
func EdisonCalibration() Calibration { return model.Edison() }

// GangaCalibration models the Penn State Ganga node of §4.1.1.
func GangaCalibration() Calibration { return model.Ganga() }

// HostCalibration measures this machine's kernel throughputs.
func HostCalibration(scratchDir string) Calibration { return model.Calibrate(scratchDir) }

// WorkloadFromIndex derives a model workload from a built index.
func WorkloadFromIndex(idx *Index) Workload { return model.FromIndex(idx) }

// PaperWorkload returns the paper-scale Table 2 datasets for predictions.
func PaperWorkload(name string) Workload { return model.PaperWorkload(name) }

// Digital normalization (the paper's §2 companion preprocessing strategy).
type (
	// NormalizeOptions configures digital normalization.
	NormalizeOptions = diginorm.Options
	// NormalizeStats reports kept/dropped reads.
	NormalizeStats = diginorm.Stats
)

// DefaultNormalizeOptions returns khmer-like settings (k=20, C=20).
func DefaultNormalizeOptions() NormalizeOptions { return diginorm.Defaults() }

// Normalize streams FASTQ files through digital normalization into
// outPath, keeping pairs together when paired is set.
func Normalize(paths []string, outPath string, paired bool, opts NormalizeOptions) (NormalizeStats, error) {
	return diginorm.NormalizeFiles(paths, outPath, paired, opts)
}

// Interleave merges two mate files into the interleaved paired form the
// pipeline consumes, returning the pair count.
func Interleave(mate1, mate2 io.Reader, w io.Writer) (int64, error) {
	return fastq.Interleave(mate1, mate2, w)
}

// PartitionPurity measures a partitioning against the generator's ground
// truth: purity is the read-weighted fraction of each component that
// belongs to its majority species (1.0 = every component is pure), and
// fragmentation is the mean number of components a species' reads are
// spread over (1.0 = every species kept whole). labels come from
// Result.Labels; origins from Dataset.Origin.
func PartitionPurity(labels []uint32, origins []int32) (purity float64, fragmentation float64) {
	if len(labels) == 0 || len(labels) != len(origins) {
		return 0, 0
	}
	type key struct {
		comp uint32
		sp   int32
	}
	cross := map[key]int{}
	compTotal := map[uint32]int{}
	speciesComps := map[int32]map[uint32]struct{}{}
	for i, l := range labels {
		sp := origins[i]
		cross[key{l, sp}]++
		compTotal[l]++
		set, ok := speciesComps[sp]
		if !ok {
			set = map[uint32]struct{}{}
			speciesComps[sp] = set
		}
		set[l] = struct{}{}
	}
	majority := map[uint32]int{}
	for k, c := range cross {
		if c > majority[k.comp] {
			majority[k.comp] = c
		}
	}
	pure := 0
	for _, c := range majority {
		pure += c
	}
	purity = float64(pure) / float64(len(labels))
	for _, comps := range speciesComps {
		fragmentation += float64(len(comps))
	}
	fragmentation /= float64(len(speciesComps))
	return purity, fragmentation
}
