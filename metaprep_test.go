package metaprep_test

import (
	"os"
	"path/filepath"
	"testing"

	"metaprep"
)

// TestEndToEnd exercises the whole public API surface the way the README's
// quickstart does: generate a dataset, index it, partition it, merge the
// output, assemble both parts, and count k-mers.
func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()

	spec, err := metaprep.Preset("HG", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := metaprep.Generate(spec, filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}

	opts := metaprep.DefaultIndexOptions()
	opts.Paired = true
	opts.ChunkSize = 64 << 10
	idx, err := metaprep.BuildIndex(ds.Files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Records != ds.Records {
		t.Fatalf("index records %d != generated %d", idx.Records, ds.Records)
	}

	// Save/load round trip through the facade.
	idxPath := filepath.Join(dir, "ds.idx")
	if err := idx.Save(idxPath); err != nil {
		t.Fatal(err)
	}
	if _, err := metaprep.LoadIndex(idxPath); err != nil {
		t.Fatal(err)
	}

	cfg := metaprep.DefaultConfig(idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.Passes = 2
	cfg.OutDir = filepath.Join(dir, "parts")
	res, err := metaprep.Partition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LargestSize == 0 || len(res.LCFiles) == 0 {
		t.Fatalf("partition produced nothing: %+v", res)
	}

	lc := filepath.Join(dir, "lc.fastq")
	other := filepath.Join(dir, "other.fastq")
	if err := metaprep.MergeOutput(res, lc, other); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(lc); err != nil || st.Size() == 0 {
		t.Fatalf("merged LC output missing: %v", err)
	}

	aopts := metaprep.DefaultAssemblyOptions()
	aopts.MinCount = 1
	_, stats, err := metaprep.AssembleFiles([]string{lc}, aopts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalBp == 0 {
		t.Error("assembly of the largest component produced no contigs")
	}

	counts, cstats, err := metaprep.CountKmers(ds.Files, metaprep.DefaultCounterOptions())
	if err != nil {
		t.Fatal(err)
	}
	if counts.Len() == 0 || cstats.TotalKmers == 0 {
		t.Error("k-mer counting produced nothing")
	}
}

func TestModelFacade(t *testing.T) {
	w := metaprep.PaperWorkload("IS")
	s := metaprep.Predict(metaprep.EdisonCalibration(), w, metaprep.ClusterSpec{P: 16, T: 24, S: 8})
	if s.Total() <= 0 {
		t.Error("prediction empty")
	}
	if metaprep.PredictMemory(w, metaprep.ClusterSpec{P: 16, T: 24, S: 8}) <= 0 {
		t.Error("memory prediction empty")
	}
}

func TestNormalizeFacade(t *testing.T) {
	dir := t.TempDir()
	spec, _ := metaprep.Preset("MM", 0.05)
	ds, err := metaprep.Generate(spec, filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "norm.fastq")
	opts := metaprep.DefaultNormalizeOptions()
	opts.Target = 5
	stats, err := metaprep.Normalize(ds.Files, out, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept == 0 {
		t.Fatal("normalization kept nothing")
	}
	if stats.Kept+stats.Dropped != ds.Records {
		t.Fatalf("accounting: %+v vs %d records", stats, ds.Records)
	}
	// The normalized output must flow through the pipeline.
	iopts := metaprep.DefaultIndexOptions()
	iopts.Paired = true
	iopts.ChunkSize = 64 << 10
	idx, err := metaprep.BuildIndex([]string{out}, iopts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metaprep.Partition(metaprep.DefaultConfig(idx)); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionPurity(t *testing.T) {
	// Perfectly pure: components equal species.
	labels := []uint32{0, 0, 1, 1, 2}
	origins := []int32{7, 7, 8, 8, 9}
	p, f := metaprep.PartitionPurity(labels, origins)
	if p != 1.0 || f != 1.0 {
		t.Errorf("pure case: purity=%v frag=%v", p, f)
	}
	// One component mixing two species 3:1.
	labels = []uint32{0, 0, 0, 0}
	origins = []int32{1, 1, 1, 2}
	p, f = metaprep.PartitionPurity(labels, origins)
	if p != 0.75 || f != 1.0 {
		t.Errorf("mixed case: purity=%v frag=%v", p, f)
	}
	// One species split across two components.
	labels = []uint32{0, 1}
	origins = []int32{5, 5}
	_, f = metaprep.PartitionPurity(labels, origins)
	if f != 2.0 {
		t.Errorf("split case: frag=%v", f)
	}
	// Degenerate.
	if p, f := metaprep.PartitionPurity(nil, nil); p != 0 || f != 0 {
		t.Error("empty input not zero")
	}
}

func TestGroundTruthPurityOnGeneratedData(t *testing.T) {
	dir := t.TempDir()
	spec, _ := metaprep.Preset("HG", 0.25)
	ds, err := metaprep.Generate(spec, filepath.Join(dir, "d"))
	if err != nil {
		t.Fatal(err)
	}
	iopts := metaprep.DefaultIndexOptions()
	iopts.Paired = true
	iopts.ChunkSize = 256 << 10
	idx, err := metaprep.BuildIndex(ds.Files, iopts)
	if err != nil {
		t.Fatal(err)
	}
	// With the band filter, components should be much purer than the
	// unfiltered giant component.
	unf, err := metaprep.Partition(metaprep.DefaultConfig(idx))
	if err != nil {
		t.Fatal(err)
	}
	cfg := metaprep.DefaultConfig(idx)
	cfg.Filter = metaprep.Filter{Min: 10, Max: 30}
	fil, err := metaprep.Partition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pU, _ := metaprep.PartitionPurity(unf.Labels, ds.Origin)
	pF, _ := metaprep.PartitionPurity(fil.Labels, ds.Origin)
	if pF <= pU {
		t.Errorf("filter did not improve purity: %v vs %v", pF, pU)
	}
}

func TestDistributedCountMatchesKMC(t *testing.T) {
	dir := t.TempDir()
	spec, _ := metaprep.Preset("HG", 0.05)
	ds, err := metaprep.Generate(spec, filepath.Join(dir, "d"))
	if err != nil {
		t.Fatal(err)
	}
	iopts := metaprep.DefaultIndexOptions()
	iopts.Paired = true
	iopts.ChunkSize = 128 << 10
	idx, err := metaprep.BuildIndex(ds.Files, iopts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := metaprep.DefaultConfig(idx)
	cfg.Tasks = 2
	cfg.Passes = 2
	pipe, err := metaprep.CountKmersDistributed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kmcCounts, _, err := metaprep.CountKmers(ds.Files, metaprep.DefaultCounterOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Len() != kmcCounts.Len() {
		t.Fatalf("pipeline %d distinct k-mers, KMC %d", pipe.Len(), kmcCounts.Len())
	}
	for i, km := range pipe.KmersLo {
		if kmcCounts.Kmers[i] != km || kmcCounts.Counts[i] != pipe.Counts[i] {
			t.Fatalf("entry %d differs: (%d,%d) vs (%d,%d)",
				i, km, pipe.Counts[i], kmcCounts.Kmers[i], kmcCounts.Counts[i])
		}
	}
}

// TestSoakFullPreset pushes a full-scale preset through the complete
// workflow — generate, normalize, index, partition with filter and output,
// merge, assemble, distributed count — as a slow integration check.
func TestSoakFullPreset(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: run without -short")
	}
	dir := t.TempDir()
	spec, err := metaprep.Preset("HG", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := metaprep.Generate(spec, filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	iopts := metaprep.DefaultIndexOptions()
	iopts.Paired = true
	idx, err := metaprep.BuildIndexParallel(ds.Files, iopts, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := metaprep.DefaultConfig(idx)
	cfg.Tasks = 4
	cfg.Threads = 2
	cfg.Passes = 2
	cfg.Filter = metaprep.Filter{Max: 30}
	cfg.Network = metaprep.EdisonNetwork()
	cfg.OutDir = filepath.Join(dir, "parts")
	res, err := metaprep.Partition(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := res.LargestFraction()
	if frac < 0.5 || frac > 0.95 {
		t.Errorf("HGsim KF<=30 LC fraction %.2f outside the tuned band", frac)
	}
	lc := filepath.Join(dir, "lc.fastq")
	other := filepath.Join(dir, "other.fastq")
	if err := metaprep.MergeOutput(res, lc, other); err != nil {
		t.Fatal(err)
	}
	if _, stats, err := metaprep.AssembleFiles([]string{lc}, metaprep.DefaultAssemblyOptions()); err != nil || stats.N50 == 0 {
		t.Fatalf("assembly: %v (N50=%d)", err, stats.N50)
	}
	counts, err := metaprep.CountKmersDistributed(metaprep.DefaultConfig(idx))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(counts.Tuples) != idx.TotalKmers {
		t.Fatalf("counter saw %d tuples, index says %d", counts.Tuples, idx.TotalKmers)
	}
	purity, _ := metaprep.PartitionPurity(res.Labels, ds.Origin)
	if purity <= 0.2 {
		t.Errorf("filtered partition purity %.2f implausibly low", purity)
	}
}
