package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"metaprep/internal/fastq"
	"metaprep/internal/index"
	"metaprep/internal/kmer"
	"metaprep/internal/mpirt"
)

// --- test helpers ---------------------------------------------------------

// testData is a generated dataset plus its index.
type testData struct {
	paths []string
	seqs  [][]byte // per record
	idx   *index.Index
}

func genDataset(t testing.TB, rng *rand.Rand, opts index.Options, files, recsPerFile, readLen int) *testData {
	t.Helper()
	dir := t.TempDir()
	td := &testData{}
	for fi := 0; fi < files; fi++ {
		path := filepath.Join(dir, "reads"+string(rune('a'+fi))+".fastq")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := fastq.NewWriter(f)
		for i := 0; i < recsPerFile; i++ {
			seq := make([]byte, readLen)
			for j := range seq {
				if rng.Intn(60) == 0 {
					seq[j] = 'N'
				} else {
					seq[j] = "ACGT"[rng.Intn(4)]
				}
			}
			td.seqs = append(td.seqs, seq)
			if err := w.Write(fastq.Record{
				ID:   []byte{'r', byte('0' + fi), byte('0' + i%10)},
				Seq:  seq,
				Qual: bytes.Repeat([]byte("I"), readLen),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		td.paths = append(td.paths, path)
	}
	idx, err := index.Build(td.paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	td.idx = idx
	return td
}

// overlappingDataset generates reads drawn from a few synthetic genomes so
// reads genuinely share k-mers (random reads rarely do).
func overlappingDataset(t testing.TB, rng *rand.Rand, opts index.Options, genomes, genomeLen, reads, readLen int) *testData {
	t.Helper()
	dir := t.TempDir()
	gs := make([][]byte, genomes)
	for g := range gs {
		gs[g] = make([]byte, genomeLen)
		for j := range gs[g] {
			gs[g][j] = "ACGT"[rng.Intn(4)]
		}
	}
	path := filepath.Join(dir, "reads.fastq")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := fastq.NewWriter(f)
	td := &testData{paths: []string{path}}
	for i := 0; i < reads; i++ {
		g := gs[rng.Intn(genomes)]
		pos := rng.Intn(len(g) - readLen)
		seq := append([]byte(nil), g[pos:pos+readLen]...)
		td.seqs = append(td.seqs, seq)
		if err := w.Write(fastq.Record{
			ID:   []byte("x"),
			Seq:  seq,
			Qual: bytes.Repeat([]byte("I"), readLen),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	idx, err := index.Build(td.paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	td.idx = idx
	return td
}

// naiveLabels computes read-graph component labels (canonicalized to the
// minimum read ID per component) directly: group reads by canonical k-mer,
// apply the frequency filter per k-mer, union.
func naiveLabels(td *testData, k int, paired bool, filter Filter) []uint32 {
	type key struct{ hi, lo uint64 }
	byKmer := make(map[key][]uint32)
	for rec, seq := range td.seqs {
		readID := uint32(rec)
		if paired {
			readID = uint32(rec / 2)
		}
		if k <= kmer.MaxK64 {
			kmer.ForEach64(seq, k, func(_ int, m kmer.Kmer64) {
				kk := key{0, uint64(m)}
				byKmer[kk] = append(byKmer[kk], readID)
			})
		} else {
			kmer.ForEach128(seq, k, func(_ int, m kmer.Kmer128) {
				kk := key{m.Hi, m.Lo}
				byKmer[kk] = append(byKmer[kk], readID)
			})
		}
	}
	n := len(td.seqs)
	if paired {
		n = (n + 1) / 2
	}
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, reads := range byKmer {
		if !filter.Keep(uint32(len(reads))) {
			continue
		}
		for _, r := range reads[1:] {
			a, b := find(reads[0]), find(r)
			if a != b {
				parent[a] = b
			}
		}
	}
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = find(uint32(i))
	}
	return canonLabels(labels)
}

// canonLabels renames labels to the minimum member of each component.
func canonLabels(labels []uint32) []uint32 {
	minOf := make(map[uint32]uint32)
	for i, l := range labels {
		if m, ok := minOf[l]; !ok || uint32(i) < m {
			minOf[l] = uint32(i)
		}
	}
	out := make([]uint32, len(labels))
	for i, l := range labels {
		out[i] = minOf[l]
	}
	return out
}

func assertSameLabels(t *testing.T, want, got []uint32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("label lengths differ: %d vs %d", len(want), len(got))
	}
	g := canonLabels(got)
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("read %d: component %d, want %d", i, g[i], want[i])
		}
	}
}

// assertSameResult asserts the paper-visible outputs of two runs are
// bit-identical: labels, component census, edge and tuple counts, and the
// k-mer frequency spectrum.
func assertSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.Labels) != len(got.Labels) {
		t.Fatalf("label lengths differ: %d vs %d", len(want.Labels), len(got.Labels))
	}
	for i := range want.Labels {
		if want.Labels[i] != got.Labels[i] {
			t.Fatalf("labels diverge at read %d: %d vs %d", i, got.Labels[i], want.Labels[i])
		}
	}
	if want.Components != got.Components {
		t.Errorf("Components = %d, want %d", got.Components, want.Components)
	}
	if want.LargestRoot != got.LargestRoot || want.LargestSize != got.LargestSize {
		t.Errorf("largest component (%d, %d), want (%d, %d)",
			got.LargestRoot, got.LargestSize, want.LargestRoot, want.LargestSize)
	}
	if want.Edges != got.Edges {
		t.Errorf("Edges = %d, want %d", got.Edges, want.Edges)
	}
	if want.Tuples != got.Tuples {
		t.Errorf("Tuples = %d, want %d", got.Tuples, want.Tuples)
	}
	for f := range want.KmerFreqHist {
		if want.KmerFreqHist[f] != got.KmerFreqHist[f] {
			t.Errorf("KmerFreqHist[%d] = %d, want %d", f, got.KmerFreqHist[f], want.KmerFreqHist[f])
		}
	}
}

func smallOpts() index.Options {
	return index.Options{K: 11, M: 4, ChunkSize: 1500}
}

// --- tests -----------------------------------------------------------------

func TestPipelineSingleTaskMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	td := overlappingDataset(t, rng, smallOpts(), 4, 400, 150, 40)
	cfg := Default(td.idx)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveLabels(td, 11, false, Filter{})
	assertSameLabels(t, want, res.Labels)
	if res.Reads != 150 {
		t.Errorf("Reads = %d", res.Reads)
	}
	if res.Tuples == 0 || res.Edges == 0 {
		t.Errorf("Tuples=%d Edges=%d", res.Tuples, res.Edges)
	}
}

func TestPipelineRandomReadsMatchesNaive(t *testing.T) {
	// Random reads (mostly singleton components, some accidental overlap).
	rng := rand.New(rand.NewSource(2))
	td := genDataset(t, rng, smallOpts(), 2, 120, 60)
	res, err := Run(Default(td.idx))
	if err != nil {
		t.Fatal(err)
	}
	assertSameLabels(t, naiveLabels(td, 11, false, Filter{}), res.Labels)
}

func TestPipelineMultiTaskMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	td := overlappingDataset(t, rng, smallOpts(), 5, 300, 200, 35)
	want := naiveLabels(td, 11, false, Filter{})
	for _, tasks := range []int{2, 3, 4} {
		for _, threads := range []int{1, 2, 3} {
			cfg := Default(td.idx)
			cfg.Tasks = tasks
			cfg.Threads = threads
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("P=%d T=%d: %v", tasks, threads, err)
			}
			assertSameLabels(t, want, res.Labels)
		}
	}
}

func TestMultiPassMatchesSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	td := overlappingDataset(t, rng, smallOpts(), 4, 350, 180, 40)
	want := naiveLabels(td, 11, false, Filter{})
	for _, passes := range []int{2, 3, 5, 8} {
		for _, ccopt := range []bool{false, true} {
			cfg := Default(td.idx)
			cfg.Tasks = 2
			cfg.Threads = 2
			cfg.Passes = passes
			cfg.CCOpt = ccopt
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("S=%d ccopt=%v: %v", passes, ccopt, err)
			}
			assertSameLabels(t, want, res.Labels)
		}
	}
}

func TestFrequencyFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	td := overlappingDataset(t, rng, smallOpts(), 3, 250, 220, 30)
	for _, filter := range []Filter{{Min: 3}, {Max: 6}, {Min: 2, Max: 10}} {
		cfg := Default(td.idx)
		cfg.Tasks = 2
		cfg.Threads = 2
		cfg.Filter = filter
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("filter %v: %v", filter, err)
		}
		assertSameLabels(t, naiveLabels(td, 11, false, filter), res.Labels)
	}
}

func TestFilterReducesLargestComponent(t *testing.T) {
	// With a Max filter, high-frequency k-mers stop gluing reads together,
	// so the largest component cannot grow.
	rng := rand.New(rand.NewSource(6))
	td := overlappingDataset(t, rng, smallOpts(), 2, 300, 300, 40)
	unfiltered, err := Run(Default(td.idx))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(td.idx)
	cfg.Filter = Filter{Max: 4}
	filtered, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.LargestSize > unfiltered.LargestSize {
		t.Errorf("filter grew the largest component: %d > %d",
			filtered.LargestSize, unfiltered.LargestSize)
	}
	if filtered.Components < unfiltered.Components {
		t.Errorf("filter reduced component count: %d < %d",
			filtered.Components, unfiltered.Components)
	}
}

func TestPairedMode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opts := smallOpts()
	opts.Paired = true
	td := overlappingDataset(t, rng, opts, 4, 300, 200, 35)
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != 100 {
		t.Fatalf("paired Reads = %d, want 100", res.Reads)
	}
	assertSameLabels(t, naiveLabels(td, 11, true, Filter{}), res.Labels)
}

func TestLargeKPath(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	opts := index.Options{K: 35, M: 4, ChunkSize: 2000}
	td := overlappingDataset(t, rng, opts, 4, 400, 120, 60)
	want := naiveLabels(td, 35, false, Filter{})
	for _, passes := range []int{1, 3} {
		cfg := Default(td.idx)
		cfg.Tasks = 2
		cfg.Threads = 2
		cfg.Passes = passes
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("S=%d: %v", passes, err)
		}
		assertSameLabels(t, want, res.Labels)
	}
}

func TestOutputPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	td := overlappingDataset(t, rng, smallOpts(), 3, 300, 180, 40)
	outDir := t.TempDir()
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.OutDir = outDir
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LCFiles) != 4 || len(res.OtherFiles) != 4 {
		t.Fatalf("output files: %d LC, %d other", len(res.LCFiles), len(res.OtherFiles))
	}
	countAll := func(paths []string) int {
		total := 0
		for _, p := range paths {
			f, err := os.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			n, err := fastq.CountRecords(f)
			f.Close()
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			total += int(n)
		}
		return total
	}
	lcRecs := countAll(res.LCFiles)
	otherRecs := countAll(res.OtherFiles)
	if lcRecs+otherRecs != len(td.seqs) {
		t.Fatalf("output holds %d records, input had %d", lcRecs+otherRecs, len(td.seqs))
	}
	if lcRecs != res.LargestSize {
		t.Fatalf("LC output has %d records, largest component has %d reads", lcRecs, res.LargestSize)
	}
	// Every record in the LC files must belong to the largest component.
	// Match by sequence content (IDs are not unique in this dataset).
	inLC := make(map[string]bool)
	for rec, seq := range td.seqs {
		if res.Labels[rec] == res.LargestRoot {
			inLC[string(seq)] = true
		}
	}
	for _, p := range res.LCFiles {
		f, _ := os.Open(p)
		r := fastq.NewReader(f)
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !inLC[string(rec.Seq)] {
				t.Fatalf("LC file %s holds read outside the largest component", p)
			}
		}
		f.Close()
	}
	// MergeLC concatenates correctly.
	lcPath := filepath.Join(outDir, "lc.fastq")
	otherPath := filepath.Join(outDir, "other.fastq")
	if err := MergeLC(res, lcPath, otherPath); err != nil {
		t.Fatal(err)
	}
	f, _ := os.Open(lcPath)
	n, err := fastq.CountRecords(f)
	f.Close()
	if err != nil || int(n) != lcRecs {
		t.Fatalf("merged LC: %d records (%v), want %d", n, err, lcRecs)
	}
}

func TestPairedOutputKeepsMatesTogether(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	opts := smallOpts()
	opts.Paired = true
	td := overlappingDataset(t, rng, opts, 3, 300, 200, 35)
	outDir := t.TempDir()
	cfg := Default(td.idx)
	cfg.OutDir = outDir
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both mates of a pair share a read ID, so the LC record count must be
	// exactly 2 × (pairs in LC).
	var lcRecs int64
	for _, p := range res.LCFiles {
		f, _ := os.Open(p)
		n, _ := fastq.CountRecords(f)
		f.Close()
		lcRecs += n
	}
	if lcRecs%2 != 0 {
		t.Fatalf("LC holds %d records — a pair was split", lcRecs)
	}
	if int(lcRecs) != 2*res.LargestSize {
		t.Fatalf("LC records %d != 2×%d", lcRecs, res.LargestSize)
	}
}

func TestStepTimesAndReports(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	td := overlappingDataset(t, rng, smallOpts(), 3, 300, 150, 40)
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.Passes = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps.KmerGen <= 0 || res.Steps.LocalSort < 0 || res.Steps.Total() <= 0 {
		t.Errorf("step times not populated: %+v", res.Steps)
	}
	if len(res.PerTask) != 2 {
		t.Fatalf("PerTask has %d entries", len(res.PerTask))
	}
	var tuples uint64
	for _, rep := range res.PerTask {
		tuples += rep.Tuples
		if rep.MemoryBytes <= 0 {
			t.Errorf("task %d memory = %d", rep.Rank, rep.MemoryBytes)
		}
	}
	if tuples != res.Tuples || tuples != td.idx.TotalKmers {
		t.Errorf("tuple counts: sum=%d res=%d index=%d", tuples, res.Tuples, td.idx.TotalKmers)
	}
	if res.CCIterations < 1 {
		t.Errorf("CCIterations = %d", res.CCIterations)
	}
	if res.Wall <= 0 {
		t.Error("Wall not measured")
	}
}

func TestComponentAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	td := overlappingDataset(t, rng, smallOpts(), 4, 300, 160, 40)
	res, err := Run(Default(td.idx))
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.ComponentSizes()
	if len(sizes) != res.Components {
		t.Errorf("Components=%d, sizes map has %d", res.Components, len(sizes))
	}
	total := 0
	maxSize := 0
	for _, s := range sizes {
		total += s
		if s > maxSize {
			maxSize = s
		}
	}
	if total != int(res.Reads) {
		t.Errorf("component sizes sum to %d, want %d", total, res.Reads)
	}
	if maxSize != res.LargestSize {
		t.Errorf("LargestSize=%d, max size=%d", res.LargestSize, maxSize)
	}
	if f := res.LargestFraction(); f <= 0 || f > 1 {
		t.Errorf("LargestFraction=%v", f)
	}
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	td := genDataset(t, rng, smallOpts(), 1, 10, 30)
	bad := []Config{
		{},
		{Index: td.idx, Tasks: 0, Threads: 1, Passes: 1},
		{Index: td.idx, Tasks: 1, Threads: 0, Passes: 1},
		{Index: td.idx, Tasks: 1, Threads: 1, Passes: 0},
		{Index: td.idx, Tasks: 1, Threads: 1, Passes: 1, Filter: Filter{Min: 10, Max: 2}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: Run accepted invalid config", i)
		}
	}
}

func TestFilterString(t *testing.T) {
	cases := map[string]Filter{
		"None":       {},
		"KF<=30":     {Max: 30},
		"KF>=10":     {Min: 10},
		"10<=KF<=30": {Min: 10, Max: 30},
	}
	for want, f := range cases {
		if got := f.String(); got != want {
			t.Errorf("Filter%+v.String() = %q, want %q", f, got, want)
		}
	}
}

func TestNetworkModelChargesCommSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	td := overlappingDataset(t, rng, smallOpts(), 3, 300, 150, 40)
	fast := Default(td.idx)
	fast.Tasks = 4
	fastRes, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	slow := fast
	// A very slow modeled network (1 KB/s) must inflate the communication
	// steps far beyond the un-modeled run, and leave labels unchanged.
	slow.Network = &mpirt.NetworkModel{BandwidthBytesPerSec: 1e3}
	slowRes, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLabels(t, canonLabels(fastRes.Labels), slowRes.Labels)
	if slowRes.Steps.KmerGenComm <= fastRes.Steps.KmerGenComm {
		t.Errorf("modeled network did not inflate KmerGen-Comm: %v vs %v",
			slowRes.Steps.KmerGenComm, fastRes.Steps.KmerGenComm)
	}
	if slowRes.Steps.MergeComm <= fastRes.Steps.MergeComm {
		t.Errorf("modeled network did not inflate Merge-Comm: %v vs %v",
			slowRes.Steps.MergeComm, fastRes.Steps.MergeComm)
	}
}

func TestMoreTasksThanChunks(t *testing.T) {
	// With P greater than the chunk count some tasks own no input at all;
	// they must still participate in the exchange, merge and output.
	rng := rand.New(rand.NewSource(17))
	opts := index.Options{K: 11, M: 4, ChunkSize: 1 << 20} // one big chunk
	td := overlappingDataset(t, rng, opts, 3, 300, 120, 40)
	if len(td.idx.Chunks) >= 4 {
		t.Fatalf("test assumes few chunks, got %d", len(td.idx.Chunks))
	}
	want := naiveLabels(td, 11, false, Filter{})
	cfg := Default(td.idx)
	cfg.Tasks = 4
	cfg.Threads = 2
	cfg.OutDir = t.TempDir()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLabels(t, want, res.Labels)
	// All reads still present in the output.
	total := 0
	for _, paths := range [][]string{res.LCFiles, res.OtherFiles} {
		for _, p := range paths {
			f, err := os.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			n, _ := fastq.CountRecords(f)
			f.Close()
			total += int(n)
		}
	}
	if total != len(td.seqs) {
		t.Fatalf("output holds %d records, want %d", total, len(td.seqs))
	}
}

func TestReadsShorterThanK(t *testing.T) {
	// Reads shorter than k contribute no tuples but must keep their read
	// IDs and appear in the output as singleton components.
	rng := rand.New(rand.NewSource(18))
	dir := t.TempDir()
	path := filepath.Join(dir, "short.fastq")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := fastq.NewWriter(f)
	var seqs [][]byte
	for i := 0; i < 50; i++ {
		n := 5 + rng.Intn(20) // some below k=11, some above
		seq := make([]byte, n)
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
		}
		seqs = append(seqs, seq)
		_ = w.Write(fastq.Record{ID: []byte("s"), Seq: seq, Qual: bytes.Repeat([]byte("I"), n)})
	}
	_ = w.Flush()
	f.Close()
	idx, err := index.Build([]string{path}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	td := &testData{paths: []string{path}, seqs: seqs, idx: idx}
	res, err := Run(Default(td.idx))
	if err != nil {
		t.Fatal(err)
	}
	assertSameLabels(t, naiveLabels(td, 11, false, Filter{}), res.Labels)
}

func TestSingleReadDataset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "one.fastq")
	os.WriteFile(path, []byte("@r\nACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIII\n"), 0o644)
	idx, err := index.Build([]string{path}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Default(idx))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != 1 || res.Components != 1 || res.LargestSize != 1 {
		t.Fatalf("single read: %+v", res)
	}
}

func TestManyPassesFewKmers(t *testing.T) {
	// More passes than distinct bins with data: some passes are empty.
	rng := rand.New(rand.NewSource(19))
	td := overlappingDataset(t, rng, smallOpts(), 2, 200, 40, 30)
	want := naiveLabels(td, 11, false, Filter{})
	cfg := Default(td.idx)
	cfg.Passes = 16
	cfg.Tasks = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLabels(t, want, res.Labels)
}

func TestSplitComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	td := overlappingDataset(t, rng, smallOpts(), 5, 350, 250, 35)
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.SplitComponents = 3
	cfg.OutDir = t.TempDir()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SplitFiles) != 4 { // 3 components + remainder
		t.Fatalf("got %d groups, want 4", len(res.SplitFiles))
	}
	// Group sizes: descending for the top components; everything accounted.
	sizes := res.ComponentSizes()
	counts := make([]int, len(res.SplitFiles))
	total := 0
	for g, paths := range res.SplitFiles {
		for _, p := range paths {
			f, err := os.Open(p)
			if err != nil {
				t.Fatal(err)
			}
			n, _ := fastq.CountRecords(f)
			f.Close()
			counts[g] += int(n)
			total += int(n)
		}
	}
	if total != len(td.seqs) {
		t.Fatalf("groups hold %d records, input had %d", total, len(td.seqs))
	}
	if counts[0] != res.LargestSize {
		t.Fatalf("group 0 has %d records, largest component %d", counts[0], res.LargestSize)
	}
	for g := 1; g < 3; g++ {
		if counts[g] > counts[g-1] {
			t.Fatalf("group %d (%d) larger than group %d (%d)", g, counts[g], g-1, counts[g-1])
		}
	}
	_ = sizes
	// LCFiles is group 0 and OtherFiles the remainder.
	if len(res.LCFiles) == 0 || res.LCFiles[0] != res.SplitFiles[0][0] {
		t.Error("LCFiles does not alias group 0")
	}
}

func TestSplitComponentsMoreThanExist(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	td := overlappingDataset(t, rng, smallOpts(), 2, 300, 60, 40)
	cfg := Default(td.idx)
	cfg.SplitComponents = 1000 // more than components exist
	cfg.OutDir = t.TempDir()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SplitFiles) != res.Components+1 {
		t.Fatalf("groups=%d components=%d", len(res.SplitFiles), res.Components)
	}
}

func TestKmerFreqHist(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	td := overlappingDataset(t, rng, smallOpts(), 3, 300, 150, 40)
	cfg := Default(td.idx)
	cfg.Tasks = 3
	cfg.Passes = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The histogram must describe exactly the distinct k-mers and tuples.
	naive := map[uint64]uint32{}
	for _, seq := range td.seqs {
		kmer.ForEach64(seq, 11, func(_ int, m kmer.Kmer64) { naive[uint64(m)]++ })
	}
	want := make([]uint64, 256)
	for _, f := range naive {
		if int(f) < 255 {
			want[f]++
		} else {
			want[255]++
		}
	}
	var distinct, tuples uint64
	for f, c := range res.KmerFreqHist {
		if c != want[f] {
			t.Fatalf("freq %d: %d k-mers, want %d", f, c, want[f])
		}
		distinct += c
		tuples += uint64(f) * c
	}
	if distinct != uint64(len(naive)) {
		t.Fatalf("distinct k-mers %d, want %d", distinct, len(naive))
	}
}

func TestPipelineRandomizedConfigs(t *testing.T) {
	// Fuzz-ish sweep: random datasets and random (P, T, S, filter, ccopt,
	// spill budget) must always match the naive reference, and every run
	// must generate exactly the index's tuple count, summed over passes.
	rng := rand.New(rand.NewSource(99))
	spilled := 0
	for trial := 0; trial < 12; trial++ {
		genomes := 2 + rng.Intn(4)
		reads := 60 + rng.Intn(150)
		readLen := 25 + rng.Intn(30)
		// A third of the trials run under the minimum spill budget, on ten
		// times the reads so a (rank, pass) partition can exceed it; whether
		// one does still depends on the drawn (P, S), so both sides of the
		// spill decision are exercised.
		spill := rng.Intn(3) == 0
		if spill {
			reads *= 10
		}
		td := overlappingDataset(t, rng, smallOpts(), genomes, 250+rng.Intn(200), reads, readLen)
		filter := Filter{}
		switch rng.Intn(3) {
		case 1:
			filter = Filter{Max: uint32(3 + rng.Intn(10))}
		case 2:
			filter = Filter{Min: uint32(2 + rng.Intn(3)), Max: uint32(8 + rng.Intn(10))}
		}
		cfg := Default(td.idx)
		cfg.Tasks = 1 + rng.Intn(5)
		cfg.Threads = 1 + rng.Intn(4)
		cfg.Passes = 1 + rng.Intn(5)
		cfg.Filter = filter
		cfg.CCOpt = rng.Intn(2) == 0
		if spill {
			cfg.SpillBudgetBytes = MinSpillBudgetBytes
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, cfg, err)
		}
		want := naiveLabels(td, 11, false, filter)
		g := canonLabels(res.Labels)
		for i := range want {
			if g[i] != want[i] {
				t.Fatalf("trial %d (P=%d T=%d S=%d %v ccopt=%v spill=%d): read %d got %d want %d",
					trial, cfg.Tasks, cfg.Threads, cfg.Passes, filter, cfg.CCOpt,
					cfg.SpillBudgetBytes, i, g[i], want[i])
			}
		}
		if res.Tuples != td.idx.TotalKmers {
			t.Fatalf("trial %d (P=%d T=%d S=%d spill=%d): %d tuples, index %d",
				trial, cfg.Tasks, cfg.Threads, cfg.Passes, cfg.SpillBudgetBytes, res.Tuples, td.idx.TotalKmers)
		}
		for _, rep := range res.PerTask {
			if rep.SpillBytes > 0 {
				spilled++
				break
			}
		}
	}
	// A reseed that stops drawing spilling trials should fail, not pass
	// with silently narrower coverage.
	if spilled == 0 {
		t.Fatal("sweep drew no spilling trial, want at least one")
	}
}

func TestRunFailsCleanlyOnChangedInput(t *testing.T) {
	// Rewriting the FASTQ after indexing must produce an error (the index's
	// counts no longer match), not corrupt output.
	rng := rand.New(rand.NewSource(25))
	td := overlappingDataset(t, rng, smallOpts(), 2, 300, 80, 40)
	// Overwrite the data file with different content of similar size.
	td2 := overlappingDataset(t, rng, smallOpts(), 2, 300, 80, 40)
	data, err := os.ReadFile(td2.paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(td.paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Every shape detects the stale index's counts: KmerGen checks each
	// (task, thread) region, the exchange each message and the receive each
	// (bin, source) slot, down to one task, one thread and one pass.
	cfg := Default(td.idx)
	cfg.Tasks = 3
	cfg.Threads = 2
	cfg.Passes = 2
	if _, err := Run(cfg); err == nil {
		t.Error("Run succeeded on input changed since IndexCreate")
	}
}

// TestRunFailsOnBinOverflow moves one count between two adjacent bins of
// one chunk histogram (and of the global histogram, as an index of slightly
// different input would), keeping every total. Task-level counts still
// match, so only the receive's per-(bin, source) slot check can catch the
// bin that now holds one tuple more than the index promised: Run must
// return the stale-index error, not sort garbage or panic.
func TestRunFailsOnBinOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	td := overlappingDataset(t, rng, smallOpts(), 2, 300, 80, 40)
	for _, shape := range [][3]int{{1, 1, 1}, {2, 2, 2}} {
		t.Run(fmt.Sprintf("P%d_T%d_S%d", shape[0], shape[1], shape[2]), func(t *testing.T) {
			idx := staleBinIndex(t, td.idx, shape[0], shape[1], shape[2])
			cfg := Default(idx)
			cfg.Tasks, cfg.Threads, cfg.Passes = shape[0], shape[1], shape[2]
			_, err := Run(cfg)
			if !errors.Is(err, errStaleIndex) {
				t.Fatalf("Run on a bin-stale index: err = %v, want the stale-index error", err)
			}
			if !strings.Contains(err.Error(), "bin ") {
				t.Errorf("err = %v, want the receive's bin-slot check to catch it", err)
			}
		})
	}
}

// staleBinIndex copies idx with one count moved from bin a to bin a+1 in
// one chunk histogram and in MerHist, choosing a so that both bins stay in
// one pass and one task range of the P/T/S partition of the moved counts.
func staleBinIndex(t *testing.T, idx *index.Index, P, T, S int) *index.Index {
	t.Helper()
	for ci := range idx.Chunks {
		for a := 0; a+1 < len(idx.MerHist); a++ {
			if idx.Chunks[ci].Hist.Count(a) == 0 {
				continue
			}
			mod := *idx
			mod.MerHist = slices.Clone(idx.MerHist)
			mod.MerHist[a]--
			mod.MerHist[a+1]++
			pt, err := index.NewPartition(mod.MerHist, S, P, T)
			if err != nil {
				t.Fatal(err)
			}
			same := false
			for s := 0; s < S; s++ {
				for rank := 0; rank < P; rank++ {
					lo, hi := pt.TaskRange(s, rank)
					same = same || lo <= a && a+1 < hi
				}
			}
			if !same {
				continue
			}
			mod.Chunks = slices.Clone(idx.Chunks)
			hist := make([]uint32, len(idx.MerHist))
			for b := range hist {
				hist[b] = idx.Chunks[ci].Hist.Count(b)
			}
			hist[a]--
			hist[a+1]++
			mod.Chunks[ci].Hist = index.NewChunkHist(hist)
			return &mod
		}
	}
	t.Fatal("no bin pair shares a task range")
	return nil
}

func TestRunFailsCleanlyOnMissingInput(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	td := overlappingDataset(t, rng, smallOpts(), 2, 300, 60, 40)
	os.Remove(td.paths[0])
	if _, err := Run(Default(td.idx)); err == nil {
		t.Error("Run succeeded with missing input file")
	}
}

func TestMatePairFilesEndToEnd(t *testing.T) {
	// Separate mate files: record i of the two files of a pair share an ID;
	// the pipeline's components must match a reference built on that ID
	// mapping.
	rng := rand.New(rand.NewSource(30))
	dir := t.TempDir()
	genomes := make([][]byte, 4)
	for g := range genomes {
		genomes[g] = make([]byte, 400)
		for j := range genomes[g] {
			genomes[g][j] = "ACGT"[rng.Intn(4)]
		}
	}
	const pairs = 80
	mate1 := make([][]byte, pairs)
	mate2 := make([][]byte, pairs)
	for i := 0; i < pairs; i++ {
		g := genomes[rng.Intn(4)]
		p1 := rng.Intn(len(g) - 40)
		p2 := rng.Intn(len(g) - 40)
		mate1[i] = append([]byte(nil), g[p1:p1+40]...)
		mate2[i] = append([]byte(nil), g[p2:p2+40]...)
	}
	writeMate := func(name string, seqs [][]byte) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := fastq.NewWriter(f)
		for _, s := range seqs {
			_ = w.Write(fastq.Record{ID: []byte("m"), Seq: s, Qual: bytes.Repeat([]byte("I"), len(s))})
		}
		_ = w.Flush()
		f.Close()
		return path
	}
	p1 := writeMate("m1.fastq", mate1)
	p2 := writeMate("m2.fastq", mate2)
	opts := smallOpts()
	opts.MatePairs = true
	idx, err := index.Build([]string{p1, p2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.Passes = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != pairs {
		t.Fatalf("Reads = %d, want %d", res.Reads, pairs)
	}
	// Naive reference over pair IDs: pair i's k-mers are those of both
	// mates.
	byKmer := map[uint64][]uint32{}
	for i := 0; i < pairs; i++ {
		for _, seq := range [][]byte{mate1[i], mate2[i]} {
			kmer.ForEach64(seq, 11, func(_ int, m kmer.Kmer64) {
				byKmer[uint64(m)] = append(byKmer[uint64(m)], uint32(i))
			})
		}
	}
	parent := make([]uint32, pairs)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, ids := range byKmer {
		for _, r := range ids[1:] {
			a, b := find(ids[0]), find(r)
			if a != b {
				parent[a] = b
			}
		}
	}
	want := make([]uint32, pairs)
	for i := range want {
		want[i] = find(uint32(i))
	}
	assertSameLabels(t, canonLabels(want), res.Labels)
}

func TestSaveLoadLabels(t *testing.T) {
	dir := t.TempDir()
	labels := []uint32{5, 5, 2, 9, 0}
	path := filepath.Join(dir, "labels.bin")
	if err := SaveLabels(path, labels); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLabels(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(labels) {
		t.Fatalf("loaded %d labels", len(got))
	}
	for i := range labels {
		if got[i] != labels[i] {
			t.Fatalf("label %d: %d != %d", i, got[i], labels[i])
		}
	}
	// Empty array round-trips.
	if err := SaveLabels(path, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadLabels(path); err != nil || len(got) != 0 {
		t.Fatalf("empty labels: %v %d", err, len(got))
	}
	// Garbage rejected.
	os.WriteFile(path, []byte("nope"), 0o644)
	if _, err := LoadLabels(path); err == nil {
		t.Error("garbage accepted")
	}
}

func TestMemoryShrinksWithPasses(t *testing.T) {
	// §3.7: the dominant memory term scales as 1/S.
	rng := rand.New(rand.NewSource(31))
	td := overlappingDataset(t, rng, smallOpts(), 3, 400, 200, 40)
	var prev int64
	for i, s := range []int{1, 2, 4, 8} {
		cfg := Default(td.idx)
		cfg.Passes = s
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.MemoryPerTask >= prev {
			t.Fatalf("S=%d memory %d not below S-previous %d", s, res.MemoryPerTask, prev)
		}
		prev = res.MemoryPerTask
	}
}
