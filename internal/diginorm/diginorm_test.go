package diginorm

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"metaprep/internal/fastq"
	"metaprep/internal/kmer"
)

func randGenome(rng *rand.Rand, n int) []byte {
	g := make([]byte, n)
	for i := range g {
		g[i] = "ACGT"[rng.Intn(4)]
	}
	return g
}

func tinyOpts() Options {
	return Options{K: 15, Target: 5, SketchWidth: 1 << 16, SketchDepth: 4}
}

// normalizeSeqs filters a sequence set through one Normalizer, returning
// the kept indices.
func normalizeSeqs(seqs [][]byte, opts Options) ([]int, Stats, error) {
	n, err := New(opts)
	if err != nil {
		return nil, Stats{}, err
	}
	var kept []int
	var stats Stats
	for i, seq := range seqs {
		if n.Keep(seq) {
			kept = append(kept, i)
			stats.Kept++
			stats.KeptBases += int64(len(seq))
		} else {
			stats.Dropped++
		}
	}
	return kept, stats, nil
}

func TestHighCoverageIsFlattened(t *testing.T) {
	// 50× coverage of one genome: normalization to C=5 must drop the vast
	// majority of reads while keeping roughly C× worth.
	rng := rand.New(rand.NewSource(1))
	genome := randGenome(rng, 2000)
	var reads [][]byte
	for i := 0; i < 1000; i++ {
		pos := rng.Intn(len(genome) - 100)
		reads = append(reads, genome[pos:pos+100])
	}
	kept, stats, err := normalizeSeqs(reads, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept+stats.Dropped != 1000 {
		t.Fatalf("accounting: %+v", stats)
	}
	// 1000 reads × 100 bp over 2000 bp = 50×; target 5 should keep well
	// under a quarter of the reads but at least ~C× coverage worth.
	if len(kept) > 350 {
		t.Errorf("kept %d of 1000 reads at 50x coverage (target 5)", len(kept))
	}
	if len(kept) < 2000*5/100/2 {
		t.Errorf("kept only %d reads — below the coverage target", len(kept))
	}
	// The kept reads must still cover (nearly) all genome k-mers, the
	// property that makes diginorm assembly-safe.
	covered := map[uint64]bool{}
	for _, i := range kept {
		kmer.ForEach64(reads[i], 15, func(_ int, m kmer.Kmer64) { covered[uint64(m)] = true })
	}
	all := map[uint64]bool{}
	for _, r := range reads {
		kmer.ForEach64(r, 15, func(_ int, m kmer.Kmer64) { all[uint64(m)] = true })
	}
	if float64(len(covered)) < 0.95*float64(len(all)) {
		t.Errorf("kept reads cover %d of %d k-mers", len(covered), len(all))
	}
}

func TestLowCoverageIsKept(t *testing.T) {
	// 2× coverage: nothing reaches the C=5 threshold, everything stays.
	rng := rand.New(rand.NewSource(2))
	genome := randGenome(rng, 5000)
	var reads [][]byte
	for i := 0; i < 100; i++ {
		pos := rng.Intn(len(genome) - 100)
		reads = append(reads, genome[pos:pos+100])
	}
	kept, _, err := normalizeSeqs(reads, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) < 95 {
		t.Errorf("kept %d of 100 low-coverage reads", len(kept))
	}
}

func TestOrderMatters(t *testing.T) {
	// The first occurrences of a region are kept, later duplicates dropped.
	rng := rand.New(rand.NewSource(3))
	read := randGenome(rng, 100)
	var reads [][]byte
	for i := 0; i < 20; i++ {
		reads = append(reads, read)
	}
	kept, _, err := normalizeSeqs(reads, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) < 4 || len(kept) > 7 {
		t.Errorf("kept %d exact duplicates, want ≈ target 5", len(kept))
	}
	for i, k := range kept {
		if k != i {
			t.Errorf("kept indices %v are not the first occurrences", kept)
			break
		}
	}
}

func TestShortAndNReadsKept(t *testing.T) {
	reads := [][]byte{
		[]byte("ACGT"),                // shorter than k
		bytes.Repeat([]byte("N"), 50), // no valid k-mers
	}
	kept, _, err := normalizeSeqs(reads, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 2 {
		t.Errorf("kept %d degenerate reads, want 2", len(kept))
	}
}

func TestValidate(t *testing.T) {
	bad := []Options{
		{K: 0, Target: 5, SketchWidth: 16, SketchDepth: 1},
		{K: 15, Target: 0, SketchWidth: 16, SketchDepth: 1},
		{K: 15, Target: 5, SketchWidth: 0, SketchDepth: 1},
		{K: 15, Target: 5, SketchWidth: 16, SketchDepth: 0},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d accepted %+v", i, o)
		}
	}
	if err := Defaults().Validate(); err != nil {
		t.Error(err)
	}
}

func TestNormalizeFilesPaired(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	genome := randGenome(rng, 1000)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.fastq")
	f, _ := os.Create(in)
	w := fastq.NewWriter(f)
	qual := bytes.Repeat([]byte("I"), 80)
	// 100 pairs at high coverage.
	for i := 0; i < 100; i++ {
		pos := rng.Intn(len(genome) - 200)
		_ = w.Write(fastq.Record{ID: []byte("a/1"), Seq: genome[pos : pos+80], Qual: qual})
		_ = w.Write(fastq.Record{ID: []byte("a/2"), Seq: genome[pos+120 : pos+200], Qual: qual})
	}
	_ = w.Flush()
	f.Close()

	out := filepath.Join(dir, "out.fastq")
	stats, err := NormalizeFiles([]string{in}, out, true, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept%2 != 0 {
		t.Errorf("paired normalization kept %d records — a pair was split", stats.Kept)
	}
	if stats.Kept == 0 || stats.Dropped == 0 {
		t.Errorf("stats = %+v, want both kept and dropped", stats)
	}
	g, _ := os.Open(out)
	n, err := countRecords(g)
	g.Close()
	if err != nil || n != stats.Kept {
		t.Errorf("output holds %d records, stats say %d (%v)", n, stats.Kept, err)
	}
}

func TestSketchSaturation(t *testing.T) {
	// Saturating counters must never wrap: hammer one k-mer far past 255.
	n, err := New(Options{K: 15, Target: 300, SketchWidth: 64, SketchDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	seq := randGenome(rand.New(rand.NewSource(5)), 15)
	for i := 0; i < 1000; i++ {
		n.Keep(seq)
	}
	km, _ := kmer.Encode64(seq)
	if got := n.estimate(uint64(kmer.Canonical64(km, 15))); got != 255 {
		t.Errorf("estimate after 1000 inserts = %d, want saturated 255", got)
	}
}

func BenchmarkNormalize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	genome := randGenome(rng, 10000)
	var reads [][]byte
	for i := 0; i < 2000; i++ {
		pos := rng.Intn(len(genome) - 100)
		reads = append(reads, genome[pos:pos+100])
	}
	opts := Defaults()
	b.SetBytes(int64(len(reads) * 100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := normalizeSeqs(reads, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// countRecords reads r to the end as FASTQ and returns its record count.
func countRecords(r io.Reader) (int64, error) {
	fr := fastq.NewReader(r)
	for {
		if _, err := fr.Next(); err != nil {
			if err == io.EOF {
				err = nil
			}
			return fr.Count(), err
		}
	}
}
