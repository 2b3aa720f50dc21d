// Package diginorm implements digital normalization (Brown et al., cited
// by the paper as Howe et al.'s companion preprocessing strategy [2]):
// a streaming filter that discards reads whose k-mers have already been
// seen at sufficient coverage, flattening coverage variation and shrinking
// datasets before assembly.
//
// The algorithm is khmer's: maintain an approximate k-mer counter (a
// count–min sketch of saturating 8-bit counters); for each read, estimate
// its coverage as the median count of its k-mers; if the estimate is below
// the target, keep the read and count its k-mers, otherwise drop it.
// Decisions depend on previous decisions, so normalization is inherently
// streaming and single-threaded — exactly why the paper's partitioning
// approach, which parallelizes, is attractive for large data.
//
// Diginorm composes with METAPREP: normalize first to cut volume, then
// partition. The package exists as the reproduction's extension of the
// paper's §2 background.
package diginorm

import (
	"fmt"
	"io"
	"os"
	"sort"

	"metaprep/internal/fastq"
	"metaprep/internal/kmer"
	"metaprep/internal/sketch"
)

// Options configures normalization.
type Options struct {
	// K is the k-mer length (≤ 31; khmer's default is 20).
	K int
	// Target is the coverage threshold C: reads whose median k-mer count
	// has reached Target are dropped (khmer's classic C=20).
	Target int
	// SketchWidth is the number of counters per hash row; SketchDepth the
	// number of rows. Bigger sketches under-count less. Defaults: 1<<20 × 4.
	SketchWidth int
	SketchDepth int
}

// Defaults returns khmer-like settings: k=20, C=20, a 4 MiB sketch.
func Defaults() Options {
	return Options{K: 20, Target: 20, SketchWidth: 1 << 20, SketchDepth: 4}
}

// Validate checks option invariants.
func (o Options) Validate() error {
	if err := kmer.CheckK64(o.K); err != nil {
		return err
	}
	if o.Target < 1 {
		return fmt.Errorf("diginorm: target %d < 1", o.Target)
	}
	if o.SketchWidth < 1 || o.SketchDepth < 1 {
		return fmt.Errorf("diginorm: sketch %d×%d invalid", o.SketchWidth, o.SketchDepth)
	}
	return nil
}

// Stats reports a normalization run.
type Stats struct {
	// Kept and Dropped count reads (records).
	Kept, Dropped int64
	// KeptBases is the retained volume.
	KeptBases int64
}

// Normalizer is the streaming filter: a thin consumer of the shared
// count–min sketch in internal/sketch (which also carries the hash family —
// per-row cells come from double hashing one (h1, h2) pair, not from
// rehashing the k-mer per row). It is not safe for concurrent use.
type Normalizer struct {
	opts   Options
	cm     *sketch.CountMin
	counts []int // scratch for median computation
}

// New returns a Normalizer.
func New(opts Options) (*Normalizer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Normalizer{opts: opts, cm: sketch.NewCountMin(opts.SketchWidth, opts.SketchDepth)}, nil
}

// estimate returns the sketch's count for a k-mer (the minimum over rows).
func (n *Normalizer) estimate(km uint64) uint8 {
	h1, h2 := sketch.Hash(0, km)
	return n.cm.Estimate(h1, h2)
}

// insert increments a k-mer's counters (saturating, conservative update).
func (n *Normalizer) insert(km uint64) {
	h1, h2 := sketch.Hash(0, km)
	n.cm.Add(h1, h2)
}

// Keep decides whether seq passes normalization. If it does, the read's
// k-mers are counted so later duplicates are seen as covered. Reads with
// no valid k-mers (too short, all Ns) are kept — dropping them is the
// caller's policy decision, not coverage's.
func (n *Normalizer) Keep(seq []byte) bool {
	n.counts = n.counts[:0]
	kmer.ForEachKey(seq, n.opts.K, func(_ int, m kmer.Kmer128) {
		n.counts = append(n.counts, int(n.estimate(m.Lo)))
	})
	if len(n.counts) == 0 {
		return true
	}
	sort.Ints(n.counts)
	if n.counts[len(n.counts)/2] >= n.opts.Target {
		return false
	}
	kmer.ForEachKey(seq, n.opts.K, func(_ int, m kmer.Kmer128) {
		n.insert(m.Lo)
	})
	return true
}

// NormalizeFiles streams FASTQ files through the filter into outPath.
// Paired mode keeps or drops mates together (records 2i, 2i+1): the pair
// survives if either mate is below coverage, preserving pairing for the
// downstream pipeline.
func NormalizeFiles(paths []string, outPath string, paired bool, opts Options) (Stats, error) {
	n, err := New(opts)
	if err != nil {
		return Stats{}, err
	}
	out, err := os.Create(outPath)
	if err != nil {
		return Stats{}, err
	}
	defer out.Close()
	w := fastq.NewWriter(out)
	var stats Stats

	emit := func(recs []fastq.Record) error {
		keep := false
		for i := range recs {
			if n.Keep(recs[i].Seq) {
				keep = true
			}
		}
		for i := range recs {
			if keep {
				if err := w.Write(recs[i]); err != nil {
					return err
				}
				stats.Kept++
				stats.KeptBases += int64(len(recs[i].Seq))
			} else {
				stats.Dropped++
			}
		}
		return nil
	}

	var pending []fastq.Record
	for _, path := range paths {
		f, err := fastq.Open(path)
		if err != nil {
			return stats, err
		}
		r := fastq.NewReader(f)
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return stats, err
			}
			pending = append(pending, rec.Clone())
			if !paired || len(pending) == 2 {
				if err := emit(pending); err != nil {
					f.Close()
					return stats, err
				}
				pending = pending[:0]
			}
		}
		f.Close()
	}
	if len(pending) > 0 {
		if err := emit(pending); err != nil {
			return stats, err
		}
	}
	return stats, w.Flush()
}
