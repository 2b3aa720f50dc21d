// Package kmc implements a KMC 2-style two-stage k-mer counter, the
// baseline Figure 9 compares METAPREP's KmerGen/LocalSort against.
//
// Like KMC 2 it is built on minimizers and super k-mers:
//
//   - Stage 1 scans the reads once. Consecutive k-mers of a read that share
//     a minimizer (their "signature") are stored as one super k-mer — a
//     single substring of length k+run-1, 2-bit packed — in the bin of that
//     signature. Compaction is the stage's point: a super k-mer of r
//     windows costs ~(k+r-1)/4 bytes instead of r full k-mers.
//   - Stage 2 processes bins independently: each bin's super k-mers are
//     expanded back into canonical k-mers, radix sorted, and run-length
//     compacted into (k-mer, count) pairs.
//
// The structural trade-off the paper measures holds here too: Stage 1 pays
// extra per-window work (minimizers, packing) to shrink the data Stage 2
// must sort, whereas METAPREP's KmerGen emits full 12-byte tuples and its
// LocalSort pays for sorting all of them.
package kmc

import (
	"fmt"
	"io"
	"time"

	"metaprep/internal/fastq"
	"metaprep/internal/kmer"
	"metaprep/internal/par"
	"metaprep/internal/radix"
)

// Options configures the counter.
type Options struct {
	// K is the k-mer length, 1..31.
	K int
	// M is the minimizer length (KMC 2 uses 7 by default), 1 ≤ M ≤ K.
	M int
	// Bins is the number of signature bins (KMC 2 uses 512).
	Bins int
	// Workers is the thread count for both stages.
	Workers int
}

// Defaults mirrors KMC 2's defaults at the paper's k.
func Defaults() Options {
	return Options{K: 27, M: 7, Bins: 512, Workers: 1}
}

// Validate checks option invariants.
func (o Options) Validate() error {
	if err := kmer.CheckK64(o.K); err != nil {
		return err
	}
	if o.M < 1 || o.M > o.K {
		return fmt.Errorf("kmc: minimizer length %d out of range", o.M)
	}
	if o.Bins < 1 {
		return fmt.Errorf("kmc: bins %d < 1", o.Bins)
	}
	if o.Workers < 1 {
		return fmt.Errorf("kmc: workers %d < 1", o.Workers)
	}
	return nil
}

// Counts is the final output: parallel slices sorted by k-mer.
type Counts struct {
	Kmers  []uint64
	Counts []uint32
}

// Len returns the number of distinct k-mers.
func (c *Counts) Len() int { return len(c.Kmers) }

// Get returns the count of a canonical k-mer (0 if absent) by binary
// search.
func (c *Counts) Get(km uint64) uint32 {
	lo, hi := 0, len(c.Kmers)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.Kmers[mid] < km {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.Kmers) && c.Kmers[lo] == km {
		return c.Counts[lo]
	}
	return 0
}

// Stats reports the per-stage timings and compaction effectiveness that
// Figure 9's comparison uses.
type Stats struct {
	// Stage1 covers reading, minimizer computation and super-k-mer binning.
	Stage1 time.Duration
	// Stage2 covers per-bin expansion, sorting and compaction.
	Stage2 time.Duration
	// SuperKmers is the number of super k-mers produced.
	SuperKmers int
	// TotalKmers is the number of k-mer instances counted.
	TotalKmers int
	// PackedBytes is the bytes of packed super-k-mer payload — the volume
	// Stage 2 receives (versus 12·TotalKmers for METAPREP's tuples).
	PackedBytes int64
}

// bin accumulates packed super k-mers: data is the concatenated 2-bit
// payloads, and winCounts holds each super k-mer's window count (its
// sequence length is windows+K-1 bases).
type bin struct {
	data      []byte
	winCounts []uint32
}

// CountSeqs counts the canonical k-mers of the given sequences. Windows
// containing non-ACGT bytes are skipped, exactly as in the pipeline.
func CountSeqs(seqs [][]byte, opts Options) (*Counts, *Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	stats := &Stats{}

	// Stage 1: per-worker bin sets, merged afterwards (KMC 2 splitters
	// likewise keep private bin buffers).
	t0 := time.Now()
	W := opts.Workers
	workerBins := make([][]bin, W)
	par.Run(W, func(w int) {
		bins := make([]bin, opts.Bins)
		lo, hi := par.Block(len(seqs), W, w)
		sp := splitter{opts: opts, bins: bins}
		for _, seq := range seqs[lo:hi] {
			sp.split(seq)
		}
		workerBins[w] = bins
	})
	bins := make([]bin, opts.Bins)
	for _, wb := range workerBins {
		for b := range wb {
			bins[b].data = append(bins[b].data, wb[b].data...)
			bins[b].winCounts = append(bins[b].winCounts, wb[b].winCounts...)
		}
	}
	for b := range bins {
		stats.SuperKmers += len(bins[b].winCounts)
		stats.PackedBytes += int64(len(bins[b].data))
	}
	stats.Stage1 = time.Since(t0)

	// Stage 2: expand, sort and compact each bin.
	t0 = time.Now()
	type binOut struct {
		kmers  []uint64
		counts []uint32
	}
	outs := make([]binOut, opts.Bins)
	par.For(W, opts.Bins, func(b int) {
		keys := expandBin(&bins[b], opts.K)
		if len(keys) == 0 {
			return
		}
		radix.SortKeys64(keys, make([]uint64, len(keys)), 8)
		var o binOut
		for i := 0; i < len(keys); {
			j := i + 1
			for j < len(keys) && keys[j] == keys[i] {
				j++
			}
			o.kmers = append(o.kmers, keys[i])
			o.counts = append(o.counts, uint32(j-i))
			i = j
		}
		outs[b] = o
	})
	// Bins do not partition the key space (signature → bin is modular), so
	// merge and re-sort the compacted pairs for a globally sorted result.
	res := &Counts{}
	for _, o := range outs {
		res.Kmers = append(res.Kmers, o.kmers...)
		res.Counts = append(res.Counts, o.counts...)
	}
	radix.SortPairs64(res.Kmers, res.Counts,
		make([]uint64, len(res.Kmers)), make([]uint32, len(res.Counts)), 8)
	for _, c := range res.Counts {
		stats.TotalKmers += int(c)
	}
	stats.Stage2 = time.Since(t0)
	return res, stats, nil
}

// CountFiles counts k-mers across FASTQ files.
func CountFiles(paths []string, opts Options) (*Counts, *Stats, error) {
	var seqs [][]byte
	for _, path := range paths {
		f, err := fastq.Open(path)
		if err != nil {
			return nil, nil, err
		}
		r := fastq.NewReader(f)
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return nil, nil, err
			}
			seqs = append(seqs, append([]byte(nil), rec.Seq...))
		}
		f.Close()
	}
	return CountSeqs(seqs, opts)
}

// splitter builds super k-mers over one read at a time.
type splitter struct {
	opts Options
	bins []bin
	// deque is the monotone queue of (m-mer position, canonical m-mer
	// value) used for the sliding-window signature.
	deque []mmerEntry
}

type mmerEntry struct {
	pos int
	val uint64
}

// split scans a read and appends maximal equal-signature runs of k-mer
// windows as packed super k-mers. The signature of a window is its
// smallest canonical m-mer, maintained incrementally with a monotone deque
// (amortized O(1) per window), the same scheme KMC 2's splitters use.
// Signatures are strand-symmetric: a window and its reverse complement
// share the canonical m-mer set, hence the minimum.
func (sp *splitter) split(seq []byte) {
	k := sp.opts.K
	i := 0
	for i < len(seq) {
		if _, ok := kmer.CodeOf(seq[i]); !ok {
			i++
			continue
		}
		j := i + 1
		for j < len(seq) {
			if _, ok := kmer.CodeOf(seq[j]); !ok {
				break
			}
			j++
		}
		if j-i >= k {
			sp.splitRun(seq, i, j)
		}
		i = j + 1
	}
}

// splitRun handles one maximal ACGT run seq[lo:hi].
func (sp *splitter) splitRun(seq []byte, lo, hi int) {
	k, m := sp.opts.K, sp.opts.M
	span := k - m + 1 // m-mer positions per k-mer window
	mask := kmer.Mask64(m)
	rcShift := 2 * uint(m-1)
	dq := sp.deque[:0]
	var fwd, rc uint64
	runStart, runSig := -1, uint64(0)
	flush := func(endPos int) {
		if runStart >= 0 {
			sp.emit(seq, lo+runStart, endPos-runStart, runSig)
			runStart = -1
		}
	}
	for i := lo; i < hi; i++ {
		c64, _ := kmer.CodeOf(seq[i])
		c := uint64(c64)
		fwd = (fwd<<2 | c) & mask
		rc = rc>>2 | (^c&3)<<rcShift
		p := i - lo - m + 1 // m-mer position within the run
		if p < 0 {
			continue
		}
		cm := fwd
		if rc < cm {
			cm = rc
		}
		// Monotone deque: drop larger values from the back, expired
		// positions from the front.
		for len(dq) > 0 && dq[len(dq)-1].val > cm {
			dq = dq[:len(dq)-1]
		}
		dq = append(dq, mmerEntry{pos: p, val: cm})
		w := p - span + 1 // k-mer window position within the run
		if w < 0 {
			continue
		}
		for dq[0].pos < w {
			dq = dq[1:]
		}
		sig := dq[0].val
		if runStart < 0 {
			runStart, runSig = w, sig
		} else if sig != runSig {
			flush(w)
			runStart, runSig = w, sig
		}
	}
	flush(hi - lo - k + 1)
	sp.deque = dq[:0]
}

// emit packs seq[pos : pos+windows+k-1] into the bin of the run's
// signature.
func (sp *splitter) emit(seq []byte, pos, windows int, sig uint64) {
	k := sp.opts.K
	b := &sp.bins[int(sig)%sp.opts.Bins]
	b.winCounts = append(b.winCounts, uint32(windows))
	b.data = packBases(b.data, seq[pos:pos+windows+k-1])
}

// packBases appends the 2-bit packing of an ACGT sequence to dst.
func packBases(dst, seq []byte) []byte {
	var cur byte
	nb := 0
	for _, c := range seq {
		code, _ := kmer.CodeOf(c)
		cur = cur<<2 | code
		nb++
		if nb == 4 {
			dst = append(dst, cur)
			cur, nb = 0, 0
		}
	}
	if nb > 0 {
		dst = append(dst, cur<<(2*uint(4-nb)))
	}
	return dst
}

// expandBin turns a bin's packed super k-mers back into canonical k-mer
// keys, rolling directly over the 2-bit payload (no ASCII round trip — the
// expansion is Stage 2's inner loop).
func expandBin(b *bin, k int) []uint64 {
	total := 0
	for _, wins := range b.winCounts {
		total += int(wins)
	}
	keys := make([]uint64, 0, total)
	mask := kmer.Mask64(k)
	rcShift := 2 * uint(k-1)
	off := 0
	for _, wins := range b.winCounts {
		nBases := int(wins) + k - 1
		nBytes := (nBases + 3) / 4
		data := b.data[off : off+nBytes]
		off += nBytes
		var fwd, rc uint64
		for i := 0; i < nBases; i++ {
			c := uint64(data[i/4] >> (2 * uint(3-i%4)) & 3)
			fwd = (fwd<<2 | c) & mask
			rc = rc>>2 | (^c&3)<<rcShift
			if i >= k-1 {
				if rc < fwd {
					keys = append(keys, rc)
				} else {
					keys = append(keys, fwd)
				}
			}
		}
	}
	return keys
}
