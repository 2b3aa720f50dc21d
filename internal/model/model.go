// Package model implements the analytic performance model of §3.7 as a
// small cluster simulator. It exists because wall-clock scaling curves
// cannot be measured on the single-core build host: the pipeline's real
// concurrent implementation is validated for correctness by the core
// package's tests, and this model — the paper's own cost analysis, with
// measured or Edison-fitted constants — regenerates the multi-node scaling
// figures (Figs. 5–7) and the multi-pass time/memory table (Table 3).
//
// The model follows §3.7's inventory. With M the total bases, R the reads,
// and the tuple count N ≈ M (one tuple per valid k-mer window):
//
//	KmerGen-I/O  = S·(disk bytes)/P ÷ io bandwidth      (S redundant reads)
//	KmerGen      = S·(M/P)/(T·scan) + (N/P)/(T·emit)
//	KmerGen-Comm = cross bytes · (1/β + warmup/S) + P·S·α
//	               (streaming: max(0, that − KmerGen) + chunks·α + 1 chunk/β)
//	LocalSort    = (N/P)/(T·sort)
//	LocalCC      = edges at base rate; passes ≥ 2 run ccOptBoost× faster
//	               under the §3.5.1 optimization
//	Merge        = ⌈log P⌉ rounds of 4R-byte transfers plus absorbs
//	               (delta merge: 8R·f total wire bytes and R·f absorbs,
//	               f = NonSingletonFrac, pipelined across ~2P messages)
//	Broadcast    = the 4R-byte label array back out: ⌈log P⌉ relay hops on
//	               the binomial tree, or P−1 serialized sends for the star
//	CC-I/O       = re-read + write of the partition output; with
//	               OverlapOutput the re-read hides behind Merge+Broadcast
//
// KmerGen's two rates are what the code pays per pass: scan is the block
// roll of every base plus the branch-free selection of the pass's k-mers,
// which every pass runs over the whole input (hence S·M), and emit is the
// store of each k-mer into kmerOut, which each tuple costs once over all
// passes. Calibrate measures both on KmerGen's own loops.
//
// The KmerGen-Comm warmup term models the paper's observation that the
// first pass's exchange is much more expensive than later passes (Table 3:
// 20.9 s at S=1 falling to 8.6 s at S=8 for constant total bytes) — the
// cost is proportional to the bytes of the first pass, i.e. ∝ 1/S.
package model

import (
	"math"
	"time"

	"metaprep/internal/index"
)

// Workload describes a dataset as the model sees it.
type Workload struct {
	// Name labels the dataset in reports.
	Name string
	// Bases is M, total base pairs across all reads.
	Bases int64
	// DiskBytes is the FASTQ volume on disk.
	DiskBytes int64
	// Reads is R, the number of global read IDs.
	Reads int64
	// Tuples is the number of (k-mer, read) tuples enumerated.
	Tuples int64
	// Edges is the number of read-graph edges LocalCC processes. When 0,
	// Tuples is used as a proxy.
	Edges int64
	// TupleBytes is 12 for k ≤ 31 and 20 for k ≤ 63.
	TupleBytes int
	// IndexBytes is the resident size of merHist + FASTQPart, and
	// ChunkBytes the size of one FASTQ chunk, for the memory model.
	IndexBytes int64
	ChunkBytes int64
	// Bins is the m-mer bin count 4^m, which sizes the in-RAM receive
	// buffer's slot and cursor tables. 0 leaves them out of the model.
	Bins int64
	// NonSingletonFrac is f, the fraction of reads whose parent pointer is
	// non-trivial by merge time — the entries a sparse or delta payload must
	// carry. 0 means unknown and is treated as 1.0 (every read shares a
	// k-mer with another), the conservative bound for metagenome data.
	NonSingletonFrac float64
}

// FromIndex derives a Workload from a built index.
func FromIndex(idx *index.Index) Workload {
	var disk int64
	var chunk int64
	for ci := range idx.Chunks {
		disk += idx.Chunks[ci].Size
		if idx.Chunks[ci].Size > chunk {
			chunk = idx.Chunks[ci].Size
		}
	}
	tb := 12
	if !idx.Opts.Use64() {
		tb = 20
	}
	return Workload{
		Bases:      idx.TotalBases,
		DiskBytes:  disk,
		Reads:      int64(idx.Reads),
		Tuples:     int64(idx.TotalKmers),
		TupleBytes: tb,
		IndexBytes: idx.MemoryBytes(),
		ChunkBytes: chunk,
		Bins:       int64(idx.Opts.Bins()),
	}
}

// PaperWorkload returns the paper-scale datasets of Table 2 (HG, LL, MM,
// IS) for paper-scale predictions. Read length ~197 bp (M/R); tuples ≈
// bases minus (k-1) per read; disk bytes ≈ 2.5 bytes per base of FASTQ.
func PaperWorkload(name string) Workload {
	type row struct {
		reads float64 // ×1e6 read pairs
		gbp   float64
	}
	rows := map[string]row{
		"HG": {12.7, 2.29},
		"LL": {21.3, 4.26},
		"MM": {54.8, 11.07},
		"IS": {1132.8, 223.26},
	}
	r, ok := rows[name]
	if !ok {
		return Workload{}
	}
	bases := int64(r.gbp * 1e9)
	reads := int64(r.reads * 1e6)
	records := reads * 2
	tuples := bases - records*26 // k=27 windows lost per record
	if tuples < 0 {
		tuples = bases
	}
	disk := int64(float64(bases) * 2.5)
	chunks := int64(384) // Table 5: 384 chunks for HG/LL/MM, 1536 for IS
	if name == "IS" {
		chunks = 1536
	}
	return Workload{
		Name:       name,
		Bases:      bases,
		DiskBytes:  disk,
		Reads:      reads,
		Tuples:     tuples,
		TupleBytes: 12,
		// merHist (4 MB at m=10) plus 1 MB per chunk of FASTQPart: one
		// byte per bin (index.ChunkHist; §3.7's worked example charges
		// 4 bytes, ≈6 GB for IS's 1536 chunks, where this is ≈1.6 GB).
		IndexBytes: 4<<20 + chunks*(1<<20),
		ChunkBytes: disk / chunks,
		Bins:       1 << 20,
	}
}

// Cluster is a machine configuration: P tasks (nodes), T threads each,
// S passes. The tuple exchange is the bulk post-generation all-to-all.
type Cluster struct {
	P, T, S int
	// SparseDeltaMerge models the pipeline's §3.6 merge (mpirt's
	// PipelinedTreeMerge, the only merge core runs): change-only sparse
	// payloads over a multi-round pipeline instead of one dense 4R-byte
	// array per tree hop, cutting both wire bytes and absorb work by the
	// workload's NonSingletonFrac. False models the paper's dense one-shot
	// tree merge, kept as an analytic baseline.
	SparseDeltaMerge bool
	// StarBroadcast models the flat P−1-send label broadcast ablation; the
	// default is the ⌈log P⌉-hop binomial TreeBroadcast.
	StarBroadcast bool
	// OverlapOutput models the overlapped CC-I/O: the output re-read streams
	// while Merge-Comm/MergeCC run, so only the un-hidden read time is
	// charged to CC-I/O.
	OverlapOutput bool
	// SpillBudgetBytes models core.Config.SpillBudgetBytes: when a pass's
	// received tuple bytes exceed it, LocalSort runs out of core — the
	// exchange appends every tuple to its bin bucket on disk (the write is
	// charged to KmerGen-Comm) and LocalSort reads each bucket back and
	// sorts it in cache at the in-RAM rate (the read is charged to
	// LocalSort). There is no merge. 0 keeps every pass in RAM.
	SpillBudgetBytes int64
}

// SpillCompressRatio is the modeled compressed/raw size of a sorted run
// under the extsort varint/delta codec (the .mpa k-mer section; spill
// buckets are written raw). Sorted tuple keys delta-encode well: neighboring k-mer
// codes share high bits, so most gaps fit 2-3 varint bytes against 8 raw
// key bytes.
const SpillCompressRatio = 0.6

// spillBuckets returns the modeled bucket count per pass, mirroring core's
// sizing: the generation buffer takes a quarter of the budget and the
// staging buffers a sixteenth, and each of the T threads loads a bucket
// into half of its share of the rest, so a bucket holds up to
// 11/32 · budget / T bytes and buckets = ⌈passBytes / that⌉. 0 when the
// pass fits the budget.
func (c Cluster) spillBuckets(passTupleBytes float64) float64 {
	if c.SpillBudgetBytes <= 0 || passTupleBytes <= float64(c.SpillBudgetBytes) {
		return 0
	}
	T := float64(max(c.T, 1))
	return math.Ceil(passTupleBytes / (float64(c.SpillBudgetBytes) * 11 / 32 / T))
}

// Steps is the model's per-step prediction, aligned with core.StepTimes.
type Steps struct {
	KmerGenIO   time.Duration
	KmerGen     time.Duration
	KmerGenComm time.Duration
	LocalSort   time.Duration
	LocalCC     time.Duration
	MergeComm   time.Duration
	MergeCC     time.Duration
	CCIO        time.Duration
}

// Total sums the steps.
func (s Steps) Total() time.Duration {
	return s.KmerGenIO + s.KmerGen + s.KmerGenComm + s.LocalSort +
		s.LocalCC + s.MergeComm + s.MergeCC + s.CCIO
}

// Calibration holds the machine constants. Rates are per core; bandwidths
// per node.
type Calibration struct {
	// Name labels the machine ("edison", "ganga", "host").
	Name string
	// ScanBasesPerSec is the per-pass enumeration throughput: the block
	// roll of every base and the branch-free pass selection.
	ScanBasesPerSec float64
	// EmitTuplesPerSec is the rate of rolling and storing tuples.
	EmitTuplesPerSec float64
	// SortTuplesPerSec is LocalSort's in-cache finish of a receive group
	// or a spill bucket (radix.BinSorter).
	SortTuplesPerSec float64
	// CCEdgesPerSec is union–find edge processing.
	CCEdgesPerSec float64
	// CCOptBoost is the speedup of LocalCC passes ≥ 2 under §3.5.1.
	CCOptBoost float64
	// AbsorbOpsPerSec is the MergeCC fold rate.
	AbsorbOpsPerSec float64
	// ReadBW / WriteBW are per-node file-system bandwidths; IOScalesWithT
	// marks file systems whose per-node bandwidth requires multiple
	// streams to saturate (Edison's Lustre) as opposed to ones serialized
	// regardless of threads (Ganga's shared NFS, §4.1.1). AggregateIOBW,
	// when nonzero, caps the file system's total bandwidth across all
	// nodes — the contention that makes "KmerGen-I/O not scale to high
	// process counts" in §4.1.2.
	ReadBW, WriteBW float64
	AggregateIOBW   float64
	IOScalesWithT   bool
	// PerThreadIOBW limits a single stream when IOScalesWithT.
	PerThreadIOBW float64
	// CommBW is the effective exchange bandwidth (bytes/s); Latency the
	// per-message cost; CommWarmup the first-pass extra seconds per byte.
	CommBW     float64
	Latency    time.Duration
	CommWarmup float64
	// CoreCap bounds the effective parallelism of the memory-bound compute
	// kernels: beyond it, extra threads only contend for the node's memory
	// bandwidth (Fig. 5's 14.5× ceiling on 24 Edison cores). 0 = no cap.
	CoreCap int
	// Startup is the fixed per-run cost (launch, opening every chunk,
	// first barriers). It does not shrink with P, which is why the paper's
	// smallest dataset scales worst across nodes (HG: 3.23× on 16 nodes).
	Startup time.Duration
	// LookupProbesPerSec is single-thread query-tier probe throughput
	// (shard + fence + in-block binary search) measured at the reference
	// 2^20-key lookup; see PredictQuerySeconds for the depth scaling.
	LookupProbesPerSec float64
}

// Edison returns constants fitted to the paper's own measurements (Table 3
// and §4's machine description: 24-core nodes, 99 GB/s STREAM, 8 GB/s
// links; effective exchange bandwidth and warmup fitted to the Table 3
// KmerGen-Comm column).
func Edison() Calibration {
	// Fitted to Table 3 (MM on 4 nodes, 24 threads/node): the published
	// KmerGen column covers both chunk reads and parsing, split here
	// half-and-half between ReadBW and ScanBasesPerSec so the per-pass sum
	// matches the measured 3.2 s/pass with a 7.7 s one-time emit cost.
	// Rates are fitted at the effective parallelism CoreCap=15, the point
	// where Edison's 24 threads saturate its memory system.
	return Calibration{
		Name:             "edison",
		ScanBasesPerSec:  115e6,
		EmitTuplesPerSec: 17.7e6,
		SortTuplesPerSec: 10.95e6,
		CCEdgesPerSec:    21e6,
		CCOptBoost:       3.2,
		AbsorbOpsPerSec:  8e6,
		ReadBW:           4.3e9,
		WriteBW:          2.6e9,
		AggregateIOBW:    30e9,
		IOScalesWithT:    true,
		PerThreadIOBW:    0.4e9,
		CommBW:           3.15e9,
		Latency:          time.Microsecond,
		CommWarmup:       0.75e-9,
		CoreCap:          15,
		Startup:          2 * time.Second,
		// A probe is ~28 dependent compares across three resident pages;
		// an Edison core sustains about 8M of them per second.
		LookupProbesPerSec: 8e6,
	}
}

// Ganga returns constants for the Penn State Ganga node of §4.1.1: a
// ~5× slower node whose shared file system does not scale parallel writes.
func Ganga() Calibration {
	// Ganga's cores are close to Edison's per-thread (§4.1.1's 5× gap at
	// full node width comes from having half the cores, a lower memory
	// ceiling, and a shared NFS whose reads and writes do not scale).
	c := Edison()
	c.Name = "ganga"
	c.ScanBasesPerSec /= 1.3
	c.EmitTuplesPerSec /= 1.3
	c.SortTuplesPerSec /= 1.3
	c.CCEdgesPerSec /= 1.3
	c.AbsorbOpsPerSec /= 1.3
	c.LookupProbesPerSec /= 1.3
	c.ReadBW = 0.15e9
	c.WriteBW = 0.06e9
	c.IOScalesWithT = false
	c.CoreCap = 8
	return c
}

// Predict evaluates the cost model.
func Predict(cal Calibration, w Workload, c Cluster) Steps {
	if c.P < 1 {
		c.P = 1
	}
	if c.T < 1 {
		c.T = 1
	}
	if c.S < 1 {
		c.S = 1
	}
	P := float64(c.P)
	T := float64(c.T)
	if cal.CoreCap > 0 && T > float64(cal.CoreCap) {
		T = float64(cal.CoreCap)
	}
	S := float64(c.S)
	edges := float64(w.Edges)
	if edges == 0 {
		edges = float64(w.Tuples)
	}
	tuplesTask := float64(w.Tuples) / P
	basesTask := float64(w.Bases) / P
	diskTask := float64(w.DiskBytes) / P

	readBW := cal.ReadBW
	writeBW := cal.WriteBW
	if cal.IOScalesWithT {
		readBW = minf(T*cal.PerThreadIOBW, cal.ReadBW)
		writeBW = minf(T*cal.PerThreadIOBW, cal.WriteBW)
	}
	if cal.AggregateIOBW > 0 {
		readBW = minf(readBW, cal.AggregateIOBW/P)
		writeBW = minf(writeBW, cal.AggregateIOBW/P)
	}

	var s Steps
	s.KmerGenIO = cal.Startup + sec(S*diskTask/readBW)
	s.KmerGen = sec(S*basesTask/(T*cal.ScanBasesPerSec) + tuplesTask/(T*cal.EmitTuplesPerSec))
	if c.P > 1 {
		cross := tuplesTask * float64(w.TupleBytes) * (P - 1) / P
		s.KmerGenComm = sec(cross/cal.CommBW+cross*cal.CommWarmup/S) +
			time.Duration(float64(c.P)*S)*cal.Latency
	}
	s.LocalSort = sec(tuplesTask / (T * cal.SortTuplesPerSec))
	if c.spillBuckets(tuplesTask/S*float64(w.TupleBytes)) > 0 {
		// Out of core: every tuple is written once, raw, into its bucket
		// as it arrives, and read back once, bucket by bucket, before the
		// same in-cache sort the in-RAM pass runs.
		diskBytes := tuplesTask * float64(w.TupleBytes)
		s.KmerGenComm += sec(diskBytes / writeBW)
		s.LocalSort += sec(diskBytes / readBW)
	}
	edgesTask := edges / P
	if c.S > 1 {
		// First pass at base rate, later passes boosted by §3.5.1.
		s.LocalCC = sec(edgesTask/S/(T*cal.CCEdgesPerSec) +
			edgesTask*(S-1)/S/(T*cal.CCEdgesPerSec*cal.CCOptBoost))
	} else {
		s.LocalCC = sec(edgesTask / (T * cal.CCEdgesPerSec))
	}
	if c.P > 1 {
		rounds := 0
		for step := 1; step < c.P; step <<= 1 {
			rounds++
		}
		labelBytes := 4 * float64(w.Reads)
		f := w.NonSingletonFrac
		if f <= 0 || f > 1 {
			f = 1
		}
		if c.SparseDeltaMerge {
			// Pipelined delta merge: across all rounds each non-singleton
			// entry crosses the wire as one 8-byte (vertex, parent) pair per
			// hop it has not already been seen on — ≈ 2·4R·f bytes total on
			// the critical inbound path — and the multi-round schedule costs
			// ~2P messages instead of one per hop. Absorb work shrinks the
			// same way: rank 0 folds ≈ R·f pairs once, not rounds·R entries.
			deltaBytes := 2 * labelBytes * f
			s.MergeComm = sec(deltaBytes*(1/cal.CommBW+cal.CommWarmup/S)) +
				time.Duration(2*c.P)*cal.Latency
			s.MergeCC = sec(float64(w.Reads) * f / (T * cal.AbsorbOpsPerSec))
		} else {
			s.MergeComm = sec(float64(rounds)*labelBytes*(1/cal.CommBW+cal.CommWarmup/S)) +
				time.Duration(rounds)*cal.Latency
			s.MergeCC = sec(float64(rounds) * float64(w.Reads) / (T * cal.AbsorbOpsPerSec))
		}
		// Label broadcast (§3.6): the binomial tree's critical path is one
		// 4R-byte hop per level; the star ablation serializes P−1 sends on
		// rank 0's link.
		bcastHops := float64(rounds)
		if c.StarBroadcast {
			bcastHops = P - 1
		}
		s.MergeComm += sec(bcastHops*labelBytes/cal.CommBW) +
			time.Duration(bcastHops)*cal.Latency
	}
	ccRead := sec(diskTask / readBW)
	if c.OverlapOutput {
		// The output re-read streams while Merge-Comm and MergeCC are in
		// flight, so only the portion the merge cannot hide is charged.
		hidden := s.MergeComm + s.MergeCC
		if hidden > ccRead {
			hidden = ccRead
		}
		ccRead -= hidden
	}
	s.CCIO = ccRead + sec(diskTask/writeBW)
	return s
}

// MergeWireBytes returns the model's total MergeCC + broadcast wire volume
// in bytes for a cluster — the quantity the delta-tree schedule shrinks
// versus the dense star (EXPERIMENTS.md's modeled ablation). Merge-up bytes
// count every tree hop; broadcast bytes count every edge of the fan-out
// (tree and star both move (P−1)·4R bytes in total — the star's saving is
// serialization on rank 0's link, not volume).
func MergeWireBytes(w Workload, c Cluster) int64 {
	if c.P <= 1 {
		return 0
	}
	rounds := 0
	for step := 1; step < c.P; step <<= 1 {
		rounds++
	}
	labelBytes := 4 * float64(w.Reads)
	f := w.NonSingletonFrac
	if f <= 0 || f > 1 {
		f = 1
	}
	var up float64
	if c.SparseDeltaMerge {
		// Change-only rounds mean each non-singleton entry crosses each hop
		// of its path to rank 0 once, as an 8-byte (vertex, parent) pair.
		// The average binomial-tree path length is the average popcount of
		// 0..P−1 ≈ ⌈log₂P⌉/2.
		up = float64(rounds) / 2 * 2 * labelBytes * f
	} else {
		up = float64(c.P-1) * labelBytes
	}
	bcast := float64(c.P-1) * labelBytes
	return int64(up + bcast)
}

// MemoryPerTask evaluates §3.7's per-task memory inventory in bytes:
// index tables + T chunk buffers + the resident tuple memory (tupleBytes)
// + p + p′.
func MemoryPerTask(w Workload, c Cluster) int64 {
	return w.IndexBytes +
		int64(c.T)*w.ChunkBytes +
		tupleBytes(w, c) +
		8*w.Reads
}

// tupleBytes is a task's resident tuple memory. In RAM it is one receive
// buffer holding a pass's received tuples, two generation slots and the
// receive tables: the slots hold rounds of whole chunks up to 1/16 of the
// receive buffer each, but at least T chunks (the chunk floor); the slot
// offsets and cursors cost 8 bytes per (group, source) each, the T receive
// workers' cursors 8 bytes per group each and the bin offsets 8 bytes per
// bin, a group being 2^RecvGroupShift(bins) bins; each LocalSort thread's
// scratch holds one group (the model charges the mean group). With a spill
// budget that a pass's received partition would exceed it is what core
// allocates out of core: the bucket arena and staging buffers, three
// quarters of the budget, plus two generation slots of budget/8, or one
// chunk's pass share of the tuples each when a single chunk holds more.
// The bin floor — a bin larger than a bucket area — is not modeled.
func tupleBytes(w Workload, c Cluster) int64 {
	tb := int64(w.TupleBytes)
	if b := c.SpillBudgetBytes; b > 0 && w.Tuples/int64(c.P)/int64(c.S)*tb > b {
		return b - b/4 + max(b/4, 2*w.chunkPassTuples(c.S)*tb)
	}
	recv := w.Tuples / int64(c.P) / int64(c.S)
	slot := recv / 16
	if chunk := w.chunkPassTuples(c.S); chunk > 0 {
		slot = min(recv, max(int64(c.T), slot/chunk)*chunk)
	}
	var tables, scratch int64
	if w.Bins > 0 {
		bins := w.Bins / int64(c.P) / int64(c.S)
		g := RecvGroupShift(int(bins))
		groups := (bins + 1<<g - 1) >> g
		tables = 8 * (int64(2*c.P+c.T)*groups + bins)
		scratch = int64(c.T) * (w.Tuples / w.Bins << g) * tb
	}
	return tb*(recv+2*slot) + tables + scratch
}

// recvGroupSlots bounds the receive slots one source gets in a task's
// in-RAM receive buffer (one more when the task's bin range does not start
// on a group boundary): few enough that each slot's write cursor stays in
// cache while a message scatters.
const recvGroupSlots = 1 << 10

// RecvGroupShift returns g for a task that receives bins m-mer bins in a
// pass: its receive scatters into groups of 2^g consecutive bins, aligned
// on the absolute bin index, and LocalSort sorts each group in cache. g is
// the smallest shift with bins ≤ 1 024·2^g, so it is 0 (one group per bin)
// for a task with at most 1 024 bins and 5 for half of the 4^8 bins.
func RecvGroupShift(bins int) uint {
	var g uint
	for bins > recvGroupSlots<<g {
		g++
	}
	return g
}

// chunkPassTuples estimates one chunk's share of a pass's tuples: the
// smallest generation slot a round can have, since rounds are whole
// chunks.
func (w Workload) chunkPassTuples(S int) int64 {
	if w.DiskBytes <= 0 {
		return 0
	}
	return int64(float64(w.Tuples) * float64(w.ChunkBytes) / float64(w.DiskBytes) / float64(S))
}

func sec(x float64) time.Duration {
	return time.Duration(x * float64(time.Second))
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
