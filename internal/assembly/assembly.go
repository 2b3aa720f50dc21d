// Package assembly implements a de Bruijn graph unitig assembler used as
// the MEGAHIT stand-in for the preprocessing-impact experiments (Tables 8
// and 9). It builds the canonical-k-mer de Bruijn graph of the reads,
// drops weak k-mers (the same frequency filter every dBG assembler applies
// during graph construction), and emits the maximal non-branching paths
// (unitigs) as contigs, reporting the contig statistics the paper's
// Table 9 lists: contig count, total bases, longest contig and N50.
//
// It is deliberately a single-k, no-error-correction assembler: the
// experiments only need assembly wall time and output statistics to respond
// to input partitioning the way a real assembler does.
package assembly

import (
	"fmt"
	"io"
	"sort"
	"time"

	"metaprep/internal/fastq"
	"metaprep/internal/kmer"
	"metaprep/internal/par"
)

// Options configures the assembler.
type Options struct {
	// K is the de Bruijn k-mer length for single-k assembly. It must be
	// odd (odd k rules out reverse-complement palindromes, as in MEGAHIT's
	// k lists) and ≤ 63.
	K int
	// KList, when non-empty, selects MEGAHIT-style iterative multi-k
	// assembly: each round assembles at the next (ascending, odd) k with
	// the previous round's contigs added to the graph, so small k recovers
	// low-coverage regions and larger k resolves repeats (§2 of the
	// paper). K is ignored when KList is set.
	KList []int
	// MinCount drops read k-mers seen fewer times (2 removes singleton
	// errors); contig k-mers from earlier rounds are always kept.
	MinCount uint32
	// Workers parallelizes the counting phase.
	Workers int
}

// Defaults returns MEGAHIT-style multi-k assembly with MinCount=2 and one
// worker. MEGAHIT's default k list is 21, 29, 39, 59, 79, 99; with ~100 bp
// reads the useful range ends at 59, which the 128-bit k-mer path supports.
func Defaults() Options {
	return Options{KList: []int{21, 29, 39, 59}, MinCount: 2, Workers: 1}
}

// Validate checks option invariants.
func (o Options) Validate() error {
	ks := o.KList
	if len(ks) == 0 {
		ks = []int{o.K}
	}
	for i, k := range ks {
		if err := kmer.CheckK128(k); err != nil {
			return err
		}
		if k%2 == 0 {
			return fmt.Errorf("assembly: k must be odd, got %d", k)
		}
		if i > 0 && k <= ks[i-1] {
			return fmt.Errorf("assembly: k list must be strictly ascending, got %v", ks)
		}
	}
	if o.Workers < 1 {
		return fmt.Errorf("assembly: workers %d < 1", o.Workers)
	}
	return nil
}

// Stats summarizes an assembly, matching Table 9's columns.
type Stats struct {
	// Contigs is the number of contigs emitted.
	Contigs int
	// TotalBp is the summed contig length.
	TotalBp int64
	// MaxBp is the longest contig's length.
	MaxBp int
	// N50 is the standard N50 statistic: the largest length L such that
	// contigs of length ≥ L cover at least half of TotalBp.
	N50 int
	// SolidKmers is the number of distinct k-mers that survived MinCount.
	SolidKmers int
	// Elapsed is the assembly wall time (the Table 8 quantity).
	Elapsed time.Duration
}

// Assemble builds contigs from read sequences: single-k when opts.KList is
// empty, MEGAHIT-style iterative multi-k otherwise.
func Assemble(seqs [][]byte, opts Options) ([][]byte, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	start := time.Now()
	ks := opts.KList
	if len(ks) == 0 {
		ks = []int{opts.K}
	}
	var contigs [][]byte
	var stats Stats
	for round, k := range ks {
		final := round == len(ks)-1
		var err error
		if k <= kmer.MaxK64 {
			contigs, stats, err = assembleK(seqs, contigs, k, opts, final)
		} else {
			contigs, stats, err = assembleK128(seqs, contigs, k, opts, final)
		}
		if err != nil {
			return nil, Stats{}, err
		}
	}
	stats.Elapsed = time.Since(start)
	return contigs, stats, nil
}

// assembleK runs one round: the de Bruijn graph of the reads at k, with the
// previous round's contigs injected as always-solid sequence. Intermediate
// rounds drop short tip contigs (they re-form from reads at the next k);
// the final round keeps everything.
func assembleK(seqs, prevContigs [][]byte, k int, opts Options, final bool) ([][]byte, Stats, error) {
	// Phase 1: canonical k-mer counting (per-worker maps, merged).
	W := opts.Workers
	partial := make([]map[uint64]uint32, W)
	par.Run(W, func(w int) {
		m := make(map[uint64]uint32)
		lo, hi := par.Block(len(seqs), W, w)
		for _, seq := range seqs[lo:hi] {
			kmer.ForEachKey(seq, k, func(_ int, km kmer.Kmer128) {
				m[km.Lo]++
			})
		}
		partial[w] = m
	})
	counts := partial[0]
	for _, m := range partial[1:] {
		for km, c := range m {
			counts[km] += c
		}
	}
	// Phase 2: solid k-mer set — frequent read k-mers plus every k-mer of
	// the previous round's contigs.
	solid := make(map[uint64]struct{}, len(counts))
	for km, c := range counts {
		if c >= opts.MinCount {
			solid[km] = struct{}{}
		}
	}
	counts = nil
	for _, c := range prevContigs {
		kmer.ForEachKey(c, k, func(_ int, km kmer.Kmer128) {
			solid[km.Lo] = struct{}{}
		})
	}

	// Phase 3: unitig walking. Deterministic start order (sorted solid
	// k-mers) so output is reproducible.
	order := make([]uint64, 0, len(solid))
	for km := range solid {
		order = append(order, km)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	g := graph{k: k, solid: solid, visited: make(map[uint64]struct{}, len(solid))}
	var contigs [][]byte
	for _, km := range order {
		if _, ok := g.visited[km]; ok {
			continue
		}
		c := g.unitig(kmer.Kmer64(km))
		if !final && len(c) < 2*k {
			continue // tip removal between rounds, as in MEGAHIT's cleaning
		}
		contigs = append(contigs, c)
	}

	stats := ContigStats(contigs)
	stats.SolidKmers = len(solid)
	return contigs, stats, nil
}

// AssembleFiles assembles the reads of FASTQ files.
func AssembleFiles(paths []string, opts Options) ([][]byte, Stats, error) {
	var seqs [][]byte
	for _, path := range paths {
		f, err := fastq.Open(path)
		if err != nil {
			return nil, Stats{}, err
		}
		r := fastq.NewReader(f)
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return nil, Stats{}, err
			}
			seqs = append(seqs, append([]byte(nil), rec.Seq...))
		}
		f.Close()
	}
	return Assemble(seqs, opts)
}

// graph walks unitigs over the implicit canonical-k-mer de Bruijn graph.
type graph struct {
	k       int
	solid   map[uint64]struct{}
	visited map[uint64]struct{}
}

// succ returns the oriented successors of oriented k-mer cur that are solid:
// for each base c, the k-mer cur[1:]+c. It reports their oriented values.
func (g *graph) succ(cur kmer.Kmer64, dst []kmer.Kmer64) []kmer.Kmer64 {
	mask := kmer.Mask64(g.k)
	dst = dst[:0]
	for c := uint64(0); c < 4; c++ {
		next := kmer.Kmer64((uint64(cur)<<2 | c) & mask)
		if _, ok := g.solid[uint64(kmer.Canonical64(next, g.k))]; ok {
			dst = append(dst, next)
		}
	}
	return dst
}

// pred returns the oriented predecessors of cur: for each base b, b+cur[:k-1].
func (g *graph) pred(cur kmer.Kmer64, dst []kmer.Kmer64) []kmer.Kmer64 {
	dst = dst[:0]
	shift := 2 * uint(g.k-1)
	for b := uint64(0); b < 4; b++ {
		prev := kmer.Kmer64(b<<shift | uint64(cur)>>2)
		if _, ok := g.solid[uint64(kmer.Canonical64(prev, g.k))]; ok {
			dst = append(dst, prev)
		}
	}
	return dst
}

// unitig emits the maximal non-branching path through start (oriented
// arbitrarily as its canonical form), marking every node on it visited.
func (g *graph) unitig(start kmer.Kmer64) []byte {
	k := g.k
	g.visited[uint64(start)] = struct{}{}

	var fwdBuf, bwdBuf [4]kmer.Kmer64

	// extend walks from cur while the path is non-branching in both
	// directions, appending one base per step, and returns the appended
	// bases.
	extend := func(cur kmer.Kmer64, forward bool) []byte {
		var out []byte
		for {
			var nexts []kmer.Kmer64
			if forward {
				nexts = g.succ(cur, fwdBuf[:0])
			} else {
				nexts = g.pred(cur, fwdBuf[:0])
			}
			if len(nexts) != 1 {
				return out
			}
			next := nexts[0]
			canon := uint64(kmer.Canonical64(next, k))
			if _, seen := g.visited[canon]; seen {
				return out // loop or already claimed by another unitig
			}
			// The step is only safe if next's unique extension back toward
			// us is cur (no branch converging into next).
			var backs []kmer.Kmer64
			if forward {
				backs = g.pred(next, bwdBuf[:0])
			} else {
				backs = g.succ(next, bwdBuf[:0])
			}
			if len(backs) != 1 {
				return out
			}
			g.visited[canon] = struct{}{}
			if forward {
				out = append(out, kmer.CharOf(uint8(uint64(next)&3)))
			} else {
				out = append(out, kmer.CharOf(uint8(uint64(next)>>(2*uint(k-1))&3)))
			}
			cur = next
		}
	}

	fwd := extend(start, true)
	bwd := extend(start, false)

	// Contig = reverse(bwd) + start + fwd.
	contig := make([]byte, 0, len(bwd)+k+len(fwd))
	for i := len(bwd) - 1; i >= 0; i-- {
		contig = append(contig, bwd[i])
	}
	contig = append(contig, kmer.String64(start, k)...)
	contig = append(contig, fwd...)
	return contig
}

// ContigStats computes Table 9's statistics for a contig set.
func ContigStats(contigs [][]byte) Stats {
	s := Stats{Contigs: len(contigs)}
	lens := make([]int, len(contigs))
	for i, c := range contigs {
		lens[i] = len(c)
		s.TotalBp += int64(len(c))
		if len(c) > s.MaxBp {
			s.MaxBp = len(c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lens)))
	var cum int64
	for _, l := range lens {
		cum += int64(l)
		if cum*2 >= s.TotalBp {
			s.N50 = l
			break
		}
	}
	return s
}
