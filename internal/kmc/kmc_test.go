package kmc

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"metaprep/internal/fastq"
	"metaprep/internal/kmer"
)

func naiveCounts(seqs [][]byte, k int) map[uint64]uint32 {
	m := make(map[uint64]uint32)
	for _, seq := range seqs {
		kmer.ForEach64(seq, k, func(_ int, km kmer.Kmer64) {
			m[uint64(km)]++
		})
	}
	return m
}

func randSeqs(rng *rand.Rand, n, length int, withN bool) [][]byte {
	seqs := make([][]byte, n)
	for i := range seqs {
		s := make([]byte, length)
		for j := range s {
			if withN && rng.Intn(40) == 0 {
				s[j] = 'N'
			} else {
				s[j] = "ACGT"[rng.Intn(4)]
			}
		}
		seqs[i] = s
	}
	return seqs
}

func assertMatchesNaive(t *testing.T, seqs [][]byte, opts Options) *Stats {
	t.Helper()
	got, stats, err := CountSeqs(seqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveCounts(seqs, opts.K)
	if got.Len() != len(want) {
		t.Fatalf("distinct k-mers: got %d, want %d", got.Len(), len(want))
	}
	total := 0
	for i, km := range got.Kmers {
		if i > 0 && got.Kmers[i-1] >= km {
			t.Fatalf("output not strictly sorted at %d", i)
		}
		if want[km] != got.Counts[i] {
			t.Fatalf("k-mer %s: count %d, want %d",
				kmer.String64(kmer.Kmer64(km), opts.K), got.Counts[i], want[km])
		}
		total += int(got.Counts[i])
	}
	if stats.TotalKmers != total {
		t.Fatalf("stats.TotalKmers=%d, sum=%d", stats.TotalKmers, total)
	}
	return stats
}

func TestCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	opts := Options{K: 11, M: 5, Bins: 64, Workers: 1}
	assertMatchesNaive(t, randSeqs(rng, 100, 80, true), opts)
}

func TestCountOverlappingReads(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	genome := randSeqs(rng, 1, 2000, false)[0]
	var seqs [][]byte
	for i := 0; i < 300; i++ {
		pos := rng.Intn(len(genome) - 60)
		seqs = append(seqs, genome[pos:pos+60])
	}
	opts := Options{K: 21, M: 7, Bins: 128, Workers: 1}
	stats := assertMatchesNaive(t, seqs, opts)
	// Compaction: packed super k-mers must be far smaller than 12 bytes per
	// k-mer instance (the METAPREP tuple volume).
	if stats.PackedBytes >= int64(stats.TotalKmers*12) {
		t.Errorf("no compaction: %d packed bytes for %d k-mers", stats.PackedBytes, stats.TotalKmers)
	}
	if stats.SuperKmers >= stats.TotalKmers {
		t.Errorf("super k-mers (%d) not fewer than k-mers (%d)", stats.SuperKmers, stats.TotalKmers)
	}
}

func TestCountParallelMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seqs := randSeqs(rng, 200, 70, true)
	opts := Options{K: 15, M: 6, Bins: 32, Workers: 4}
	assertMatchesNaive(t, seqs, opts)
}

func TestCountSingleBin(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seqs := randSeqs(rng, 50, 50, false)
	assertMatchesNaive(t, seqs, Options{K: 9, M: 3, Bins: 1, Workers: 2})
}

func TestCountEmptyAndShort(t *testing.T) {
	opts := Options{K: 11, M: 5, Bins: 16, Workers: 1}
	got, stats, err := CountSeqs(nil, opts)
	if err != nil || got.Len() != 0 || stats.TotalKmers != 0 {
		t.Fatalf("empty input: %v %d %d", err, got.Len(), stats.TotalKmers)
	}
	// Reads shorter than k contribute nothing.
	got, _, err = CountSeqs([][]byte{[]byte("ACGT")}, opts)
	if err != nil || got.Len() != 0 {
		t.Fatalf("short read: %v %d", err, got.Len())
	}
}

func TestGet(t *testing.T) {
	seqs := [][]byte{[]byte("ACGTACGTACGT")}
	opts := Options{K: 5, M: 3, Bins: 8, Workers: 1}
	got, _, err := CountSeqs(seqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for km, want := range naiveCounts(seqs, 5) {
		if got.Get(km) != want {
			t.Errorf("Get(%d) = %d, want %d", km, got.Get(km), want)
		}
	}
	if got.Get(^uint64(0)) != 0 {
		t.Error("Get of absent k-mer != 0")
	}
}

func TestCountFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seqs := randSeqs(rng, 60, 50, true)
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.fastq")
	f, _ := os.Create(path)
	w := fastq.NewWriter(f)
	for _, s := range seqs {
		_ = w.Write(fastq.Record{ID: []byte("r"), Seq: s, Qual: bytes.Repeat([]byte("I"), len(s))})
	}
	_ = w.Flush()
	f.Close()
	got, _, err := CountFiles([]string{path}, Options{K: 13, M: 5, Bins: 32, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveCounts(seqs, 13)
	if got.Len() != len(want) {
		t.Fatalf("distinct: %d vs %d", got.Len(), len(want))
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{K: 0, M: 1, Bins: 1, Workers: 1},
		{K: 32, M: 1, Bins: 1, Workers: 1},
		{K: 11, M: 0, Bins: 1, Workers: 1},
		{K: 11, M: 12, Bins: 1, Workers: 1},
		{K: 11, M: 5, Bins: 0, Workers: 1},
		{K: 11, M: 5, Bins: 4, Workers: 0},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, o)
		}
	}
	if err := Defaults().Validate(); err != nil {
		t.Error(err)
	}
}

// unpackBases decodes n bases from packed data into ASCII, the inverse
// packBases is checked against.
func unpackBases(dst, data []byte, n int) []byte {
	for i := 0; i < n; i++ {
		byteIdx := i / 4
		shift := 2 * uint(3-i%4)
		code := data[byteIdx] >> shift & 3
		dst = append(dst, kmer.CharOf(code))
	}
	return dst
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		seq := randSeqs(rng, 1, n, false)[0]
		packed := packBases(nil, seq)
		if len(packed) != (n+3)/4 {
			t.Fatalf("packed %d bases into %d bytes", n, len(packed))
		}
		got := unpackBases(nil, packed, n)
		if !bytes.Equal(got, seq) {
			t.Fatalf("round trip failed for %q: got %q", seq, got)
		}
	}
}

func BenchmarkCountSeqs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	genome := randSeqs(rng, 1, 10000, false)[0]
	var seqs [][]byte
	for i := 0; i < 2000; i++ {
		pos := rng.Intn(len(genome) - 100)
		seqs = append(seqs, genome[pos:pos+100])
	}
	opts := Defaults()
	b.SetBytes(int64(2000 * 100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CountSeqs(seqs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCountFilesGzip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seqs := randSeqs(rng, 40, 50, false)
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.fastq.gz")
	var raw bytes.Buffer
	w := fastq.NewWriter(&raw)
	for _, s := range seqs {
		_ = w.Write(fastq.Record{ID: []byte("r"), Seq: s, Qual: bytes.Repeat([]byte("I"), len(s))})
	}
	_ = w.Flush()
	f, _ := os.Create(path)
	gz := gzip.NewWriter(f)
	gz.Write(raw.Bytes())
	gz.Close()
	f.Close()
	got, _, err := CountFiles([]string{path}, Options{K: 13, M: 5, Bins: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(naiveCounts(seqs, 13)) {
		t.Fatalf("gzip counting found %d distinct k-mers", got.Len())
	}
}
