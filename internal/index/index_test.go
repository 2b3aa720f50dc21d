package index

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"metaprep/internal/fastq"
	"metaprep/internal/kmer"
)

// writeFastq writes n random records of the given read length to a file in
// dir and returns its path along with the record sequences.
func writeFastq(t *testing.T, dir, name string, rng *rand.Rand, n, readLen int) (string, [][]byte) {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := fastq.NewWriter(f)
	var seqs [][]byte
	for i := 0; i < n; i++ {
		seq := make([]byte, readLen)
		for j := range seq {
			if rng.Intn(50) == 0 {
				seq[j] = 'N'
			} else {
				seq[j] = "ACGT"[rng.Intn(4)]
			}
		}
		seqs = append(seqs, seq)
		qual := bytes.Repeat([]byte("I"), readLen)
		if err := w.Write(fastq.Record{ID: []byte{'r', byte('0' + i%10)}, Seq: seq, Qual: qual}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, seqs
}

// naiveHist computes the m-mer prefix histogram of all canonical k-mers.
func naiveHist(seqs [][]byte, k, m int) []uint64 {
	hist := make([]uint64, 1<<(2*uint(m)))
	for _, seq := range seqs {
		kmer.ForEach64(seq, k, func(_ int, km kmer.Kmer64) {
			hist[uint64(km)>>(2*uint(k-m))]++
		})
	}
	return hist
}

func smallOpts() Options {
	return Options{K: 11, M: 4, ChunkSize: 2000}
}

func TestBuildBasic(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	path, seqs := writeFastq(t, dir, "a.fastq", rng, 200, 80)
	idx, err := Build([]string{path}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if idx.Records != 200 || idx.Reads != 200 {
		t.Errorf("Records=%d Reads=%d", idx.Records, idx.Reads)
	}
	if idx.TotalBases != 200*80 {
		t.Errorf("TotalBases=%d", idx.TotalBases)
	}
	want := naiveHist(seqs, 11, 4)
	if !reflect.DeepEqual(idx.MerHist, want) {
		t.Error("MerHist differs from naive histogram")
	}
	var totalK uint64
	for _, v := range want {
		totalK += v
	}
	if idx.TotalKmers != totalK {
		t.Errorf("TotalKmers=%d want %d", idx.TotalKmers, totalK)
	}
	if len(idx.Chunks) < 2 {
		t.Errorf("expected multiple chunks, got %d", len(idx.Chunks))
	}
}

func TestChunksCoverFiles(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	p1, _ := writeFastq(t, dir, "a.fastq", rng, 150, 60)
	p2, _ := writeFastq(t, dir, "b.fastq", rng, 75, 100)
	idx, err := Build([]string{p1, p2}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Per file: chunks must tile [0, fileSize) without gaps, and record
	// counts must sum to the file's records.
	for fi, path := range idx.Files {
		st, _ := os.Stat(path)
		var off int64
		var recs int32
		for _, c := range idx.Chunks {
			if int(c.File) != fi {
				continue
			}
			if c.Offset != off {
				t.Fatalf("file %d: chunk at %d, expected %d", fi, c.Offset, off)
			}
			off += c.Size
			recs += c.Records
		}
		if off != st.Size() {
			t.Fatalf("file %d: chunks cover %d of %d bytes", fi, off, st.Size())
		}
		wantRecs := int32(150)
		if fi == 1 {
			wantRecs = 75
		}
		if recs != wantRecs {
			t.Fatalf("file %d: %d records, want %d", fi, recs, wantRecs)
		}
	}
	// FirstRead must be cumulative across files.
	if idx.Chunks[0].FirstRead != 0 {
		t.Error("first chunk FirstRead != 0")
	}
	if idx.Reads != 225 {
		t.Errorf("Reads=%d want 225", idx.Reads)
	}
}

func TestChunkBoundariesAreRecordStarts(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	path, _ := writeFastq(t, dir, "a.fastq", rng, 300, 70)
	idx, err := Build([]string{path}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	f, _ := os.Open(path)
	defer f.Close()
	for ci, c := range idx.Chunks {
		r := fastq.NewReader(io.NewSectionReader(f, c.Offset, c.Size))
		n := int32(0)
		for {
			_, err := r.Next()
			if err != nil {
				break
			}
			n++
		}
		if n != c.Records {
			t.Fatalf("chunk %d: parsed %d records from range, table says %d", ci, n, c.Records)
		}
	}
}

func TestPairedReadIDs(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	path, _ := writeFastq(t, dir, "a.fastq", rng, 100, 90)
	opts := smallOpts()
	opts.Paired = true
	idx, err := Build([]string{path}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Reads != 50 {
		t.Errorf("paired Reads=%d want 50", idx.Reads)
	}
	// Chunks must start at even records: FirstRead*2 records precede them.
	var cum int32
	for ci := range idx.Chunks {
		c := &idx.Chunks[ci]
		if uint32(cum/2) != c.FirstRead {
			t.Fatalf("chunk %d: FirstRead=%d, %d records precede", ci, c.FirstRead, cum)
		}
		if cum%2 != 0 {
			t.Fatalf("chunk %d starts at odd record %d", ci, cum)
		}
		// ReadIDOf: mates share IDs.
		if c.Records >= 2 {
			if idx.ReadIDOf(c, 0) != idx.ReadIDOf(c, 1) {
				t.Fatal("mates 0,1 have different read IDs")
			}
			if c.Records >= 3 && idx.ReadIDOf(c, 2) != idx.ReadIDOf(c, 0)+1 {
				t.Fatal("read IDs not consecutive across pairs")
			}
		}
		cum += c.Records
	}
}

func TestBuildParallelMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	p1, _ := writeFastq(t, dir, "a.fastq", rng, 200, 75)
	p2, _ := writeFastq(t, dir, "b.fastq", rng, 120, 75)
	seq, err := Build([]string{p1, p2}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	parl, err := BuildParallel([]string{p1, p2}, smallOpts(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.MerHist, parl.MerHist) {
		t.Error("parallel MerHist differs")
	}
	if len(seq.Chunks) != len(parl.Chunks) {
		t.Fatalf("chunk counts differ: %d vs %d", len(seq.Chunks), len(parl.Chunks))
	}
	for i := range seq.Chunks {
		a, b := seq.Chunks[i], parl.Chunks[i]
		if a.Offset != b.Offset || a.Size != b.Size || a.FirstRead != b.FirstRead || a.Records != b.Records {
			t.Fatalf("chunk %d metadata differs: %+v vs %+v", i, a, b)
		}
		if !reflect.DeepEqual(a.Hist, b.Hist) {
			t.Fatalf("chunk %d histogram differs", i)
		}
	}
}

func TestChunkHistsSumToGlobal(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	path, _ := writeFastq(t, dir, "a.fastq", rng, 250, 85)
	idx, err := Build([]string{path}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]uint64, idx.Opts.Bins())
	for ci := range idx.Chunks {
		h := &idx.Chunks[ci].Hist
		var total uint64
		for b := range sum {
			sum[b] += uint64(h.Count(b))
			total += uint64(h.Count(b))
		}
		if got := h.RangeCount(0, len(sum)); got != total {
			t.Errorf("chunk %d: RangeCount over every bin = %d, want %d", ci, got, total)
		}
	}
	if !reflect.DeepEqual(sum, idx.MerHist) {
		t.Error("chunk histograms do not sum to global histogram")
	}
}

func TestBuild128Path(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	path, seqs := writeFastq(t, dir, "a.fastq", rng, 60, 120)
	opts := Options{K: 63, M: 4, ChunkSize: 4000}
	idx, err := Build([]string{path}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, opts.Bins())
	for _, seq := range seqs {
		kmer.ForEach128(seq, 63, func(_ int, km kmer.Kmer128) {
			want[kmer.Prefix128(km, 63, 4)]++
		})
	}
	if !reflect.DeepEqual(idx.MerHist, want) {
		t.Error("63-mer MerHist differs from naive")
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{K: 0, M: 4, ChunkSize: 100},
		{K: 64, M: 4, ChunkSize: 100},
		{K: 27, M: 0, ChunkSize: 100},
		{K: 27, M: 13, ChunkSize: 100},
		{K: 3, M: 4, ChunkSize: 100},
		{K: 27, M: 8, ChunkSize: 0},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o)
		}
	}
	if err := Defaults().Validate(); err != nil {
		t.Errorf("Defaults invalid: %v", err)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, smallOpts()); err == nil {
		t.Error("Build with no files succeeded")
	}
	if _, err := Build([]string{"/nonexistent/x.fastq"}, smallOpts()); err == nil {
		t.Error("Build with missing file succeeded")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.fastq")
	os.WriteFile(bad, []byte("not fastq\n"), 0o644)
	if _, err := Build([]string{bad}, smallOpts()); err == nil {
		t.Error("Build with malformed file succeeded")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	p1, _ := writeFastq(t, dir, "a.fastq", rng, 180, 65)
	opts := smallOpts()
	opts.Paired = true
	idx, err := Build([]string{p1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "test.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idx, got) {
		t.Error("round-tripped index differs")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk")
	os.WriteFile(path, []byte("definitely not an index"), 0o644)
	if _, err := Load(path); err == nil {
		t.Error("Load accepted garbage")
	}
	os.WriteFile(path, []byte(fileMagic+"trunc"), 0o644)
	if _, err := Load(path); err == nil {
		t.Error("Load accepted truncated index")
	}
}

func TestMemoryBytes(t *testing.T) {
	idx := &Index{Opts: Options{K: 27, M: 4, ChunkSize: 100}}
	counts := make([]uint32, 256)
	idx.Chunks = make([]Chunk, 3)
	for ci := range idx.Chunks {
		// Chunk ci has ci bins at or above 255.
		for b := 0; b < ci; b++ {
			counts[10*b] = 255 + uint32(ci)
		}
		idx.Chunks[ci].Hist = NewChunkHist(counts)
	}
	// 8·4^m + Σ_chunks (4^m + 8·overflow entries) = 2048 + 3·256 + 8·(0+1+2).
	if got := idx.MemoryBytes(); got != 2048+3*256+8*3 {
		t.Errorf("MemoryBytes = %d", got)
	}
}

func TestPartitionStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	hist := make([]uint64, 256)
	for i := range hist {
		hist[i] = uint64(rng.Intn(1000))
	}
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {8, 16, 24}, {4, 2, 1}} {
		s, p, tt := dims[0], dims[1], dims[2]
		pt, err := NewPartition(hist, s, p, tt)
		if err != nil {
			t.Fatal(err)
		}
		// Pass ranges tile the bin space; task ranges tile each pass; thread
		// ranges tile each task.
		if lo, _ := pt.PassRange(0); lo != 0 {
			t.Fatal("first pass does not start at 0")
		}
		if _, hi := pt.PassRange(s - 1); hi != 256 {
			t.Fatal("last pass does not end at bin count")
		}
		for si := 0; si < s; si++ {
			plo, phi := pt.PassRange(si)
			if si > 0 {
				_, prevHi := pt.PassRange(si - 1)
				if plo != prevHi {
					t.Fatal("pass ranges do not tile")
				}
			}
			tlo, _ := pt.TaskRange(si, 0)
			_, thi := pt.TaskRange(si, p-1)
			if tlo != plo || thi != phi {
				t.Fatal("task ranges do not tile the pass")
			}
			for pi := 0; pi < p; pi++ {
				alo, ahi := pt.TaskRange(si, pi)
				cuts := pt.ThreadCuts(si, pi)
				if cuts[0] != alo || cuts[tt] != ahi {
					t.Fatal("thread ranges do not tile the task")
				}
			}
		}
	}
}

// checkTiling walks the partition tables in (pass, task, thread) order and
// checks that they tile [0, bins): every level's ranges are monotone,
// contiguous and exactly cover the range above them, so each bin has
// exactly one owner at every level.
func checkTiling(pt *Partition, bins int) error {
	next := 0 // the first bin no task range has covered yet
	for s := 0; s < pt.S; s++ {
		plo, phi := pt.PassRange(s)
		if plo != next {
			return fmt.Errorf("pass %d starts at bin %d, want %d", s, plo, next)
		}
		for p := 0; p < pt.P; p++ {
			lo, hi := pt.TaskRange(s, p)
			if lo != next || hi < lo {
				return fmt.Errorf("pass %d task %d owns [%d,%d), want a range from %d", s, p, lo, hi, next)
			}
			cuts := pt.ThreadCuts(s, p)
			if len(cuts) != pt.T+1 || cuts[0] != lo || cuts[pt.T] != hi {
				return fmt.Errorf("pass %d task %d: thread cuts %v do not span [%d,%d)", s, p, cuts, lo, hi)
			}
			for th := 0; th < pt.T; th++ {
				if cuts[th+1] < cuts[th] {
					return fmt.Errorf("pass %d task %d: thread cuts %v not monotone", s, p, cuts)
				}
			}
			next = hi
		}
		if next != phi {
			return fmt.Errorf("pass %d: tasks end at bin %d, pass at %d", s, next, phi)
		}
	}
	if next != bins {
		return fmt.Errorf("partition covers %d bins, want %d", next, bins)
	}
	return nil
}

func TestPartitionOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	hist := make([]uint64, 1024)
	for i := range hist {
		hist[i] = uint64(rng.Intn(100))
	}
	pt, err := NewPartition(hist, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTiling(pt, len(hist)); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBalance(t *testing.T) {
	// Uniform weights must split nearly evenly.
	hist := make([]uint64, 4096)
	for i := range hist {
		hist[i] = 10
	}
	pt, _ := NewPartition(hist, 4, 4, 1)
	total := uint64(4096 * 10)
	for s := 0; s < 4; s++ {
		lo, hi := pt.PassRange(s)
		w := RangeCount64(hist, lo, hi)
		if w < total/4-20 || w > total/4+20 {
			t.Errorf("pass %d weight %d, want ≈%d", s, w, total/4)
		}
	}
}

func TestPartitionDegenerate(t *testing.T) {
	// More parts than bins: must stay monotone; empty ranges own nothing.
	hist := []uint64{5, 7}
	pt, err := NewPartition(hist, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTiling(pt, len(hist)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPartition(hist, 0, 1, 1); err == nil {
		t.Error("accepted S=0")
	}
}

func TestSegmentCounts(t *testing.T) {
	hist := NewChunkHist([]uint32{1, 2, 3, 4, 5, 6, 7, 8})
	cuts := []int{0, 3, 3, 8}
	var got []uint64
	for i := 0; i+1 < len(cuts); i++ {
		got = append(got, hist.RangeCount(cuts[i], cuts[i+1]))
	}
	want := []uint64{6, 0, 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("segment counts = %v, want %v", got, want)
	}
	if hist.RangeCount(2, 5) != 12 {
		t.Error("RangeCount wrong")
	}
}

func TestVerify(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(40))
	path, _ := writeFastq(t, dir, "a.fastq", rng, 100, 70)
	idx, err := Build([]string{path}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Verify(); err != nil {
		t.Fatalf("fresh index failed Verify: %v", err)
	}
	// Truncate the file: Verify must notice.
	if err := os.Truncate(path, 100); err != nil {
		t.Fatal(err)
	}
	if err := idx.Verify(); err == nil {
		t.Error("Verify accepted a truncated input")
	}
	// Remove it entirely.
	os.Remove(path)
	if err := idx.Verify(); err == nil {
		t.Error("Verify accepted a missing input")
	}
}

func TestMatePairsIndex(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(50))
	// Two file pairs: (a1,a2) with 60 pairs, (b1,b2) with 40 pairs.
	a1, _ := writeFastq(t, dir, "a1.fastq", rng, 60, 70)
	a2, _ := writeFastq(t, dir, "a2.fastq", rng, 60, 70)
	b1, _ := writeFastq(t, dir, "b1.fastq", rng, 40, 70)
	b2, _ := writeFastq(t, dir, "b2.fastq", rng, 40, 70)
	opts := smallOpts()
	opts.MatePairs = true
	idx, err := Build([]string{a1, a2, b1, b2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Reads != 100 {
		t.Fatalf("Reads = %d, want 100 pairs", idx.Reads)
	}
	if idx.Records != 200 {
		t.Fatalf("Records = %d", idx.Records)
	}
	// Read IDs: file a1 and a2 share IDs 0..59; b1/b2 share 60..99.
	idOf := func(fi int, rec int32) uint32 {
		for ci := range idx.Chunks {
			c := &idx.Chunks[ci]
			if int(c.File) == fi && rec >= int32(0) {
				// locate the chunk containing record rec of file fi
				var cum int32
				for cj := range idx.Chunks {
					d := &idx.Chunks[cj]
					if int(d.File) != fi {
						continue
					}
					if rec < cum+d.Records {
						return idx.ReadIDOf(d, rec-cum)
					}
					cum += d.Records
				}
			}
		}
		t.Fatalf("record %d of file %d not found", rec, fi)
		return 0
	}
	for _, rec := range []int32{0, 1, 33, 59} {
		if idOf(0, rec) != idOf(1, rec) {
			t.Fatalf("mates of pair %d have different IDs: %d vs %d", rec, idOf(0, rec), idOf(1, rec))
		}
		if idOf(0, rec) != uint32(rec) {
			t.Fatalf("pair %d has ID %d", rec, idOf(0, rec))
		}
	}
	if idOf(2, 0) != 60 || idOf(3, 39) != 99 {
		t.Fatalf("second file pair IDs wrong: %d, %d", idOf(2, 0), idOf(3, 39))
	}
	// Round-trips through serialization.
	path := filepath.Join(dir, "mp.idx")
	if err := idx.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Opts.MatePairs {
		t.Error("MatePairs flag lost in serialization")
	}
}

func TestMatePairsValidation(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(51))
	a1, _ := writeFastq(t, dir, "a1.fastq", rng, 30, 50)
	a2, _ := writeFastq(t, dir, "a2.fastq", rng, 20, 50) // mismatched count
	opts := smallOpts()
	opts.MatePairs = true
	if _, err := Build([]string{a1, a2}, opts); err == nil {
		t.Error("mismatched mate counts accepted")
	}
	if _, err := Build([]string{a1}, opts); err == nil {
		t.Error("odd file count accepted")
	}
	opts.Paired = true
	if err := opts.Validate(); err == nil {
		t.Error("Paired+MatePairs accepted")
	}
}

func TestBuildRejectsGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reads.fastq.gz")
	os.WriteFile(path, []byte{0x1F, 0x8B, 0x08, 0x00}, 0o644)
	_, err := Build([]string{path}, smallOpts())
	if err == nil || !strings.Contains(err.Error(), "gzip") {
		t.Fatalf("gzip input not rejected clearly: %v", err)
	}
}

func TestPartitionPropertyQuick(t *testing.T) {
	// Property: for random histograms and dimensions, the ranges tile each
	// level, so every bin is owned by exactly one (pass, task, thread).
	f := func(weights []uint16, sRaw, pRaw, tRaw uint8) bool {
		if len(weights) == 0 {
			weights = []uint16{1}
		}
		if len(weights) > 512 {
			weights = weights[:512]
		}
		hist := make([]uint64, len(weights))
		for i, w := range weights {
			hist[i] = uint64(w)
		}
		s := int(sRaw)%4 + 1
		p := int(pRaw)%5 + 1
		tt := int(tRaw)%5 + 1
		pt, err := NewPartition(hist, s, p, tt)
		if err != nil {
			return false
		}
		return checkTiling(pt, len(hist)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestChunkCanonicalFlag checks the per-chunk Canonical marker: canonical
// files mark every chunk, CRLF files mark none, and a file whose only
// deviation is a missing final newline taints just its last chunk.
func TestChunkCanonicalFlag(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(91))
	canon, _ := writeFastq(t, dir, "canon.fastq", rng, 120, 70)

	idx, err := Build([]string{canon}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Chunks) < 2 {
		t.Fatalf("want multiple chunks, got %d", len(idx.Chunks))
	}
	for ci := range idx.Chunks {
		if !idx.Chunks[ci].Canonical {
			t.Errorf("canonical file: chunk %d not marked Canonical", ci)
		}
	}

	// CRLF line endings: every chunk is tainted.
	data, err := os.ReadFile(canon)
	if err != nil {
		t.Fatal(err)
	}
	crlf := filepath.Join(dir, "crlf.fastq")
	if err := os.WriteFile(crlf, bytes.ReplaceAll(data, []byte("\n"), []byte("\r\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	cidx, err := Build([]string{crlf}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for ci := range cidx.Chunks {
		if cidx.Chunks[ci].Canonical {
			t.Errorf("CRLF file: chunk %d marked Canonical", ci)
		}
	}

	// Missing final newline: only the last chunk is tainted.
	trunc := filepath.Join(dir, "trunc.fastq")
	if err := os.WriteFile(trunc, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	tidx, err := Build([]string{trunc}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for ci := range tidx.Chunks {
		want := ci != len(tidx.Chunks)-1
		if tidx.Chunks[ci].Canonical != want {
			t.Errorf("truncated file: chunk %d Canonical = %v, want %v", ci, tidx.Chunks[ci].Canonical, want)
		}
	}

	// The flag survives serialization.
	path := filepath.Join(dir, "t.idx")
	if err := tidx.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range got.Chunks {
		if got.Chunks[ci].Canonical != tidx.Chunks[ci].Canonical {
			t.Errorf("round-trip: chunk %d Canonical flipped", ci)
		}
	}
}
