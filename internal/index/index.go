// Package index implements METAPREP's IndexCreate step (§3.1): the merHist
// and FASTQPart tables that make every later pipeline step statically
// schedulable.
//
// merHist counts, for every m-mer value in [0, 4^m), how many canonical
// k-mers in the whole dataset have that m-mer as their prefix. Because
// packed k-mers sort lexicographically, a contiguous range of m-mer bins is
// a contiguous range of the k-mer key space, so splitting the bin space by
// cumulative count yields balanced key ranges for passes, tasks and threads.
//
// FASTQPart logically partitions the input FASTQ files into chunks of
// roughly equal byte size. Each chunk records its file, byte offset, size,
// the global read ID of its first record, and its own m-mer histogram
// (Fig. 2). From those per-chunk histograms every send/receive buffer offset
// in the pipeline is precomputed, which is what lets threads write shared
// buffers without synchronization (§3.2.2, §3.3, §3.4).
//
// The tables are written to disk in a binary format and reused across runs
// on different task/thread configurations, as in the paper.
package index

import (
	"fmt"
	"io"
	"os"

	"metaprep/internal/fastq"
	"metaprep/internal/kmer"
	"metaprep/internal/par"
)

// Options configures index creation. The zero value is not valid; use
// Defaults and override.
type Options struct {
	// K is the k-mer length, 1..63 (27 in most of the paper's experiments).
	K int
	// M is the m-mer prefix length defining histogram bins (4^M bins).
	// The paper uses m=10; the default here is 8, proportionate to the
	// scaled datasets. Must satisfy 1 ≤ M ≤ min(K, 12).
	M int
	// ChunkSize is the target chunk size in bytes.
	ChunkSize int64
	// Paired marks the input as interleaved paired-end: records 2i and
	// 2i+1 share global read ID i, preserving pairing through partitioning
	// (§3.2). Chunk boundaries are aligned to pair starts.
	Paired bool
	// MatePairs marks the input as separate mate files: files come in
	// consecutive pairs (mate-1 file, mate-2 file) whose i-th records are
	// the two ends of one pair and share a global read ID — the layout
	// §4.3 describes ("the same read has to be located in the other FASTQ
	// file"). Mutually exclusive with Paired; both files of a pair must
	// hold the same number of records.
	MatePairs bool
}

// Defaults returns the options used throughout the evaluation: k=27, m=8,
// 4 MiB chunks, unpaired.
func Defaults() Options {
	return Options{K: 27, M: 8, ChunkSize: 4 << 20}
}

// Validate checks the option invariants.
func (o Options) Validate() error {
	if err := kmer.CheckK128(o.K); err != nil {
		return err
	}
	if o.M < 1 || o.M > 12 || o.M > o.K {
		return fmt.Errorf("index: m=%d out of range (1..min(k,12))", o.M)
	}
	if o.ChunkSize < 1 {
		return fmt.Errorf("index: chunk size %d < 1", o.ChunkSize)
	}
	if o.Paired && o.MatePairs {
		return fmt.Errorf("index: Paired and MatePairs are mutually exclusive")
	}
	return nil
}

// Bins returns the number of histogram bins, 4^M.
func (o Options) Bins() int { return 1 << (2 * uint(o.M)) }

// Use64 reports whether the 64-bit k-mer representation suffices for K.
func (o Options) Use64() bool { return o.K <= kmer.MaxK64 }

// Chunk is one FASTQPart record: a logical piece of one FASTQ file plus its
// private m-mer histogram.
type Chunk struct {
	// File indexes Index.Files.
	File int32
	// Offset is the byte offset of the chunk's first record.
	Offset int64
	// Size is the chunk's length in bytes.
	Size int64
	// FirstRead is the global read ID of the chunk's first record.
	FirstRead uint32
	// Records is the number of FASTQ records in the chunk.
	Records int32
	// Canonical reports that every record in the chunk is stored in
	// canonical FASTQ form ('\n'-only line endings, bare '+' separator,
	// trailing newline), so the chunk's raw bytes are exactly the
	// concatenation of its records' canonical encodings. The zero-copy
	// CC-I/O path uses this to blit record runs without parsing.
	Canonical bool
	// Hist counts canonical k-mers in this chunk by m-mer prefix bin.
	Hist ChunkHist
}

// Index is the pair of tables produced by IndexCreate.
type Index struct {
	// Opts are the options the index was built with. Runs using the index
	// must use the same K, M and Paired settings.
	Opts Options
	// Files lists the input FASTQ paths, in order.
	Files []string
	// MerHist is the global m-mer histogram (the per-chunk histograms
	// summed), with 64-bit counts so the largest datasets cannot overflow.
	MerHist []uint64
	// Chunks is the FASTQPart table.
	Chunks []Chunk
	// Reads is R, the number of global read IDs (pairs count once).
	Reads uint32
	// Records is the total number of FASTQ records.
	Records int64
	// TotalBases is the cumulative sequence length (the paper's M, in bp).
	TotalBases int64
	// TotalKmers is the total number of canonical k-mers enumerated.
	TotalKmers uint64
}

// Build runs the sequential IndexCreate step over the given FASTQ files.
// It makes a single pass, simultaneously placing chunk boundaries and
// accumulating per-chunk histograms, exactly the work §3.1 describes.
func Build(files []string, opts Options) (*Index, error) {
	return build(files, opts, 1)
}

// BuildParallel is Build with the histogram phase parallelized over chunks
// (the paper notes IndexCreate "can be parallelized in the same manner" as
// KmerGen; Table 5 reports the sequential version). The chunk table is
// discovered in a sequential record-boundary scan that does no k-mer work,
// then workers histogram chunks independently.
func BuildParallel(files []string, opts Options, workers int) (*Index, error) {
	if workers <= 1 {
		return Build(files, opts)
	}
	return build(files, opts, workers)
}

func build(files []string, opts Options, workers int) (*Index, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("index: no input files")
	}
	if opts.MatePairs && len(files)%2 != 0 {
		return nil, fmt.Errorf("index: MatePairs needs an even number of files, got %d", len(files))
	}
	idx := &Index{
		Opts:  opts,
		Files: append([]string(nil), files...),
	}
	if err := idx.scanChunks(workers == 1); err != nil {
		return nil, err
	}
	if workers > 1 {
		// Each worker histograms a block of chunks into one reused
		// binHist, compacting its counts as each chunk ends.
		n := len(idx.Chunks)
		workers = min(workers, n)
		errs := make([]error, n)
		par.Run(workers, func(w int) {
			lo, hi := par.Block(n, workers, w)
			h := newBinHist(opts)
			for ci := lo; ci < hi; ci++ {
				errs[ci] = idx.histogramChunk(ci, h)
			}
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	idx.MerHist = make([]uint64, opts.Bins())
	for ci := range idx.Chunks {
		idx.Chunks[ci].Hist.addTo(idx.MerHist)
	}
	for b := range idx.MerHist {
		idx.TotalKmers += idx.MerHist[b]
	}
	return idx, nil
}

// scanChunks performs the sequential pass over all files: it places chunk
// boundaries at record starts (aligned to pair starts in paired mode),
// assigns global read IDs, and — when withHist is true — also histograms
// canonical k-mers into one binHist whose counts are compacted into the
// chunk as it ends.
func (idx *Index) scanChunks(withHist bool) error {
	opts := idx.Opts
	var h *binHist
	if withHist {
		h = newBinHist(opts)
	}
	var globalRecord int64
	// Mate-pair bookkeeping: the pair ID of file fi's record j is
	// pairBase + j, where pairBase is the pair count of earlier file
	// pairs; both files of a pair share the base.
	var pairBase uint32
	var mate1Records int64
	for fi, path := range idx.Files {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("index: %w", err)
		}
		var magic [2]byte
		if n, _ := f.ReadAt(magic[:], 0); n == 2 && magic[0] == 0x1F && magic[1] == 0x8B {
			f.Close()
			return fmt.Errorf("index: %s is gzip-compressed; the pipeline needs random access for chunking — decompress it first", path)
		}
		if opts.MatePairs && fi%2 == 0 && fi > 0 {
			pairBase += uint32(mate1Records)
		}
		r := fastq.NewReader(f)
		var cur *Chunk
		flush := func(end int64) {
			if cur != nil {
				cur.Size = end - cur.Offset
				if withHist {
					cur.Hist = NewChunkHist(h.counts)
					clear(h.counts)
				}
				idx.Chunks = append(idx.Chunks, *cur)
				cur = nil
			}
		}
		var fileRecords int64
		for {
			off := r.Offset()
			rec, err := r.Next()
			if err == io.EOF {
				flush(off)
				break
			}
			if err != nil {
				f.Close()
				return fmt.Errorf("index: %s: %w", path, err)
			}
			atPairStart := !opts.Paired || globalRecord%2 == 0
			if cur == nil || (atPairStart && off-cur.Offset >= opts.ChunkSize) {
				flush(off)
				first := idx.readID(globalRecord)
				if opts.MatePairs {
					first = pairBase + uint32(fileRecords)
				}
				cur = &Chunk{
					File:      int32(fi),
					Offset:    off,
					FirstRead: first,
					Canonical: true,
				}
			}
			cur.Records++
			cur.Canonical = cur.Canonical && r.Verbatim()
			idx.Records++
			fileRecords++
			idx.TotalBases += int64(len(rec.Seq))
			globalRecord++
			if withHist {
				h.add(rec.Seq)
			}
		}
		f.Close()
		if opts.MatePairs {
			if fi%2 == 0 {
				mate1Records = fileRecords
			} else if fileRecords != mate1Records {
				return fmt.Errorf("index: mate files %s and %s hold %d vs %d records",
					idx.Files[fi-1], path, mate1Records, fileRecords)
			}
		}
	}
	switch {
	case opts.MatePairs:
		idx.Reads = pairBase + uint32(mate1Records)
	case idx.Records > 0:
		idx.Reads = idx.readID(idx.Records-1) + 1
	}
	return nil
}

// histogramChunk fills chunk ci's histogram by reading its byte range with
// one ReadAt and scanning the records in place (chunks are sized to be
// buffer-resident, so the zero-copy ChunkScanner applies). It counts into
// h and compacts the counts.
func (idx *Index) histogramChunk(ci int, h *binHist) error {
	c := &idx.Chunks[ci]
	clear(h.counts)
	f, err := os.Open(idx.Files[c.File])
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, c.Size)
	if _, err := io.ReadFull(io.NewSectionReader(f, c.Offset, c.Size), buf); err != nil {
		return fmt.Errorf("index: chunk %d of %s: %w", ci, idx.Files[c.File], err)
	}
	sc := fastq.NewChunkScanner(buf)
	for n := int32(0); n < c.Records; n++ {
		rec, err := sc.Next()
		if err != nil {
			return fmt.Errorf("index: chunk %d of %s: %w", ci, idx.Files[c.File], err)
		}
		h.add(rec.Seq)
	}
	c.Hist = NewChunkHist(h.counts)
	return nil
}

// binHist counts the m-mer bins of canonical k-mers into a 4^m array,
// rolling each sequence a block at a time through blocks it keeps.
type binHist struct {
	counts []uint32
	k, m   int
	roll   kmer.Roller
	hi, lo kmer.Block
}

func newBinHist(opts Options) *binHist {
	return &binHist{counts: make([]uint32, opts.Bins()), k: opts.K, m: opts.M}
}

// add counts the bins of seq's canonical k-mers.
func (h *binHist) add(seq []byte) {
	h.roll.Reset(seq, h.k)
	if h.k > kmer.MaxK64 {
		for _, his, los := h.roll.Next128(&h.hi, &h.lo); len(los) > 0; _, his, los = h.roll.Next128(&h.hi, &h.lo) {
			for j := range los {
				h.counts[kmer.Prefix128(kmer.Kmer128{Hi: his[j], Lo: los[j]}, h.k, h.m)]++
			}
		}
		return
	}
	shift := 2 * uint(h.k-h.m)
	for _, keys := h.roll.Next64(&h.lo); len(keys) > 0; _, keys = h.roll.Next64(&h.lo) {
		for _, key := range keys {
			h.counts[key>>shift]++
		}
	}
}

// readID maps a global record number to its global read ID.
func (idx *Index) readID(record int64) uint32 {
	if idx.Opts.Paired {
		return uint32(record / 2)
	}
	return uint32(record)
}

// ReadIDOf returns the global read ID of the i-th record (0-based) within
// chunk c.
func (idx *Index) ReadIDOf(c *Chunk, i int32) uint32 {
	if idx.Opts.Paired {
		// FirstRead*2 is the chunk's first global record (chunks are
		// pair-aligned), so the record number is FirstRead*2 + i.
		return c.FirstRead + uint32(i)/2
	}
	// Unpaired and MatePairs both advance one read ID per record: in
	// mate-pair mode consecutive records of one file are consecutive
	// pairs, and the matching records of the mate file repeat the IDs.
	return c.FirstRead + uint32(i)
}

// MemoryBytes returns the in-memory size of the index tables: 8·4^m for the
// global histogram plus each chunk's compact histogram, 4^m bytes and 8 per
// overflow entry (the paper's 4^{m+1}(C+1) figure, §3.7, charges 4 bytes a
// bin everywhere).
func (idx *Index) MemoryBytes() int64 {
	mem := 8 * int64(idx.Opts.Bins())
	for ci := range idx.Chunks {
		mem += idx.Chunks[ci].Hist.MemoryBytes()
	}
	return mem
}

// Verify checks that the index still matches the files on disk: every file
// must exist with a size covering its chunks. It catches the most common
// staleness failure — a FASTQ regenerated or truncated since IndexCreate —
// before the pipeline fails mid-run with a count mismatch.
func (idx *Index) Verify() error {
	need := make([]int64, len(idx.Files))
	for ci := range idx.Chunks {
		c := &idx.Chunks[ci]
		if end := c.Offset + c.Size; end > need[c.File] {
			need[c.File] = end
		}
	}
	for fi, path := range idx.Files {
		st, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("index: stale: %w", err)
		}
		if st.Size() < need[fi] {
			return fmt.Errorf("index: stale: %s is %d bytes, chunks need %d — rebuild the index",
				path, st.Size(), need[fi])
		}
	}
	return nil
}
