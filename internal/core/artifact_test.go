package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metaprep/internal/artifact"
	"metaprep/internal/fastq"
	"metaprep/internal/index"
	"metaprep/internal/obsv"
)

// --- helpers ---------------------------------------------------------------

// writeFastqFile writes one record per seq.
func writeFastqFile(t *testing.T, path string, seqs [][]byte) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := fastq.NewWriter(f)
	for i, seq := range seqs {
		if err := w.Write(fastq.Record{
			ID:   []byte(fmt.Sprintf("r%04d", i)),
			Seq:  seq,
			Qual: bytes.Repeat([]byte("I"), len(seq)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// genomeReads draws n reads from a shared set of synthetic genomes, so
// reads genuinely overlap.
func genomeReads(rng *rand.Rand, genomes [][]byte, n, readLen int) [][]byte {
	seqs := make([][]byte, n)
	for i := range seqs {
		g := genomes[rng.Intn(len(genomes))]
		pos := rng.Intn(len(g) - readLen)
		seqs[i] = append([]byte(nil), g[pos:pos+readLen]...)
	}
	return seqs
}

func makeGenomes(rng *rand.Rand, n, length int) [][]byte {
	gs := make([][]byte, n)
	for g := range gs {
		gs[g] = make([]byte, length)
		for j := range gs[g] {
			gs[g][j] = "ACGT"[rng.Intn(4)]
		}
	}
	return gs
}

// dirContents maps relative path → file bytes for every regular file under
// dir (the output byte-identity comparison).
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameDirBytes(t *testing.T, want, got string) {
	t.Helper()
	w, g := dirContents(t, want), dirContents(t, got)
	if len(w) != len(g) {
		t.Fatalf("output file counts differ: %d vs %d", len(w), len(g))
	}
	for rel, wb := range w {
		gb, ok := g[rel]
		if !ok {
			t.Fatalf("output %s missing from reload", rel)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("output %s differs between direct run and reload", rel)
		}
	}
}

// artifactMatrix is the parity grid: key width × task count × spill.
type artifactCase struct {
	name   string
	k, m   int
	tasks  int
	spill  bool
	passes int
	filter Filter
}

func artifactMatrix() []artifactCase {
	return []artifactCase{
		{name: "k11-P1", k: 11, m: 4, tasks: 1, passes: 1},
		{name: "k11-P2", k: 11, m: 4, tasks: 2, passes: 1},
		{name: "k11-P4", k: 11, m: 4, tasks: 4, passes: 1},
		{name: "k11-P2-spill", k: 11, m: 4, tasks: 2, spill: true, passes: 1},
		{name: "k11-P4-spill", k: 11, m: 4, tasks: 4, spill: true, passes: 1},
		{name: "k11-P2-2pass", k: 11, m: 4, tasks: 2, passes: 2},
		{name: "k35-P2", k: 35, m: 4, tasks: 2, passes: 1},
		{name: "k35-P2-spill", k: 35, m: 4, tasks: 2, spill: true, passes: 1},
		{name: "k11-P2-min2", k: 11, m: 4, tasks: 2, passes: 1, filter: Filter{Min: 2}},
		{name: "k11-P2-min3", k: 11, m: 4, tasks: 2, passes: 1, filter: Filter{Min: 3}},
	}
}

func (c artifactCase) apply(cfg *Config) {
	cfg.Tasks = c.tasks
	cfg.Threads = 2
	cfg.Passes = c.passes
	cfg.Filter = c.filter
	if c.spill {
		cfg.SpillBudgetBytes = MinSpillBudgetBytes
	}
}

// --- reload parity ---------------------------------------------------------

// TestArtifactReloadParity runs the pipeline with an artifact emit, reloads
// the artifact, and checks the reloaded result — labels bit-identical,
// derived fields equal, and the partitioned FASTQ output byte-identical.
func TestArtifactReloadParity(t *testing.T) {
	for _, c := range artifactMatrix() {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			opts := index.Options{K: c.k, M: c.m, ChunkSize: 1500}
			td := overlappingDataset(t, rng, opts, 4, 500, 160, 60)
			dir := t.TempDir()
			art := filepath.Join(dir, "run.mpa")

			cfg := Default(td.idx)
			c.apply(&cfg)
			cfg.ArtifactOut = art
			cfg.OutDir = filepath.Join(dir, "out-direct")
			direct, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}

			rcfg := Default(td.idx)
			c.apply(&rcfg)
			rcfg.ArtifactIn = art
			rcfg.OutDir = filepath.Join(dir, "out-reload")
			reload, err := Run(rcfg)
			if err != nil {
				t.Fatal(err)
			}

			if !slicesEqualU32(direct.Labels, reload.Labels) {
				t.Fatal("reloaded labels differ from the direct run's")
			}
			if direct.LargestRoot != reload.LargestRoot || direct.LargestSize != reload.LargestSize {
				t.Fatalf("largest component (%d,%d) vs (%d,%d)",
					direct.LargestRoot, direct.LargestSize, reload.LargestRoot, reload.LargestSize)
			}
			if direct.Components != reload.Components {
				t.Fatalf("components %d vs %d", direct.Components, reload.Components)
			}
			if direct.Tuples != reload.Tuples {
				t.Fatalf("tuples %d vs %d", direct.Tuples, reload.Tuples)
			}
			if !slicesEqualU64(direct.KmerFreqHist, reload.KmerFreqHist) {
				t.Fatal("frequency histograms differ")
			}
			assertSameDirBytes(t, cfg.OutDir, rcfg.OutDir)

			// The stored tuple stream must be sorted and hold exactly
			// Result.Tuples tuples.
			r, err := artifact.Open(art)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Tuples() != direct.Tuples {
				t.Fatalf("artifact holds %d tuples, run enumerated %d", r.Tuples(), direct.Tuples)
			}
			s, err := r.Kmers()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var n uint64
			var prevHi, prevLo uint64
			for {
				hi, lo, _, ok, err := s.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if n > 0 && (hi < prevHi || (hi == prevHi && lo < prevLo)) {
					t.Fatalf("tuple %d out of order", n)
				}
				prevHi, prevLo = hi, lo
				n++
			}
			if n != direct.Tuples {
				t.Fatalf("streamed %d tuples, want %d", n, direct.Tuples)
			}
		})
	}
}

// TestArtifactShapeContract pins "same bytes from every shape" for the
// .mpa kmers section. Across P ∈ {1,2,3} × T ∈ {1,2} × S ∈ {1,2} and both
// key widths, an in-RAM run and a spilling run (minimum budget, at least
// two KmerGen rounds per task) must generate the index's tuple count and
// write kmers sections with the same CRC; at one pass the decoded (key,
// value) stream must hash the same for every task and thread count; and
// under Filter{Max} — where a k-mer's reads can sit in different
// components — the label of each key's first read, which lookup.Build
// serves, must agree between the two artifacts.
func TestArtifactShapeContract(t *testing.T) {
	for _, w := range []struct {
		name string
		k    int
	}{{"64bit", 11}, {"128bit", 35}} {
		td := spillDataset(t, 41, index.Options{K: w.k, M: 4, ChunkSize: 600})
		for _, filter := range []Filter{{}, {Max: 20}} {
			var streamHash [sha256.Size]byte
			for _, passes := range []int{1, 2} {
				for _, tasks := range []int{1, 2, 3} {
					for _, threads := range []int{1, 2} {
						name := fmt.Sprintf("%s/max%d/P%d_T%d_S%d", w.name, filter.Max, tasks, threads, passes)
						t.Run(name, func(t *testing.T) {
							dir := t.TempDir()
							run := func(budget int64) (string, *Result) {
								cfg := Default(td.idx)
								cfg.Tasks, cfg.Threads, cfg.Passes = tasks, threads, passes
								cfg.Filter = filter
								cfg.ArtifactOut = filepath.Join(dir, fmt.Sprintf("b%d.mpa", budget))
								cfg.SpillBudgetBytes = budget
								obs := obsv.New()
								cfg.Obs = obs
								if budget > 0 {
									requireSpill(t, cfg)
								}
								res, err := Run(cfg)
								if err != nil {
									t.Fatal(err)
								}
								if budget > 0 {
									for rank := 0; rank < tasks; rank++ {
										if r := obs.Counter(rank, "kmergen/rounds").Value(); r < 2 {
											t.Fatalf("rank %d ran %d KmerGen rounds, want >= 2", rank, r)
										}
									}
								}
								return cfg.ArtifactOut, res
							}
							ramPath, ram := run(0)
							spillPath, spill := run(MinSpillBudgetBytes)
							if !slicesEqualU32(ram.Labels, spill.Labels) {
								t.Fatal("labels differ between the in-RAM and spilling runs")
							}
							if ram.Tuples != td.idx.TotalKmers || spill.Tuples != td.idx.TotalKmers {
								t.Fatalf("Tuples = %d in RAM, %d spilling, index %d", ram.Tuples, spill.Tuples, td.idx.TotalKmers)
							}

							if a, b := kmersCRC(t, ramPath), kmersCRC(t, spillPath); a != b {
								t.Fatalf("kmers CRC %08x in RAM, %08x spilling", a, b)
							}
							if passes == 1 {
								h := kmerStreamHash(t, ramPath)
								if streamHash == ([sha256.Size]byte{}) {
									streamHash = h
								} else if h != streamHash {
									t.Fatalf("decoded kmers stream differs from the first shape's")
								}
							}
							if filter.Max > 0 {
								a := firstReadLabels(t, ramPath, ram.Labels)
								b := firstReadLabels(t, spillPath, spill.Labels)
								if !slicesEqualU32(a, b) {
									t.Fatal("first-read labels differ between the in-RAM and spilling artifacts")
								}
							}
						})
					}
				}
			}
		}
	}
}

// kmersCRC returns the CRC of an artifact's kmers section.
func kmersCRC(t *testing.T, path string) uint32 {
	t.Helper()
	info, err := artifact.Info(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range info.Sections {
		if sec.Name == "kmers" {
			return sec.CRC
		}
	}
	t.Fatalf("%s has no kmers section", path)
	return 0
}

// forEachStoredTuple streams an artifact's decoded kmers section.
func forEachStoredTuple(t *testing.T, path string, fn func(hi, lo uint64, val uint32)) {
	t.Helper()
	r, err := artifact.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, err := r.Kmers()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for {
		hi, lo, val, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
		fn(hi, lo, val)
	}
}

// kmerStreamHash is the sha256 of the decoded (hi, lo, val) stream.
func kmerStreamHash(t *testing.T, path string) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	var b [20]byte
	forEachStoredTuple(t, path, func(hi, lo uint64, val uint32) {
		binary.LittleEndian.PutUint64(b[0:], hi)
		binary.LittleEndian.PutUint64(b[8:], lo)
		binary.LittleEndian.PutUint32(b[16:], val)
		h.Write(b[:])
	})
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// firstReadLabels lists, key by key, the label of the key's first stored
// value: the component lookup.Build assigns the k-mer.
func firstReadLabels(t *testing.T, path string, labels []uint32) []uint32 {
	t.Helper()
	var out []uint32
	var prevHi, prevLo uint64
	forEachStoredTuple(t, path, func(hi, lo uint64, val uint32) {
		if len(out) == 0 || hi != prevHi || lo != prevLo {
			out = append(out, labels[val])
			prevHi, prevLo = hi, lo
		}
	})
	return out
}

func slicesEqualU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func slicesEqualU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestArtifactReloadMismatch: a structurally valid artifact for the wrong
// index or filter is rejected with artifact.ErrMismatch, not used.
func TestArtifactReloadMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tdA := overlappingDataset(t, rng, smallOpts(), 2, 400, 60, 40)
	tdB := overlappingDataset(t, rng, smallOpts(), 2, 400, 60, 40)
	art := filepath.Join(t.TempDir(), "a.mpa")

	cfg := Default(tdA.idx)
	cfg.ArtifactOut = art
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	wrongIdx := Default(tdB.idx)
	wrongIdx.ArtifactIn = art
	if _, err := Run(wrongIdx); !errors.Is(err, artifact.ErrMismatch) {
		t.Fatalf("wrong index: err = %v, want ErrMismatch", err)
	}

	wrongFilter := Default(tdA.idx)
	wrongFilter.ArtifactIn = art
	wrongFilter.Filter = Filter{Min: 3}
	if _, err := Run(wrongFilter); !errors.Is(err, artifact.ErrMismatch) {
		t.Fatalf("wrong filter: err = %v, want ErrMismatch", err)
	}

	// Corrupt the file: the reload must fail with ErrBadArtifact.
	raw, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.mpa")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	badCfg := Default(tdA.idx)
	badCfg.ArtifactIn = bad
	if _, err := Run(badCfg); !errors.Is(err, artifact.ErrBadArtifact) {
		t.Fatalf("corrupt artifact: err = %v, want ErrBadArtifact", err)
	}
}

// --- incremental parity ----------------------------------------------------

// TestIncrementalParity proves incremental(base artifact + delta FASTQ) is
// label-isomorphic to full(base ∪ delta) across key widths, task counts,
// spill modes and filter bounds — and that a second delta chained off the
// merged artifact stays isomorphic too.
func TestIncrementalParity(t *testing.T) {
	for _, c := range artifactMatrix() {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			opts := index.Options{K: c.k, M: c.m, ChunkSize: 1500}
			genomes := makeGenomes(rng, 4, 500)
			dir := t.TempDir()

			basePath := filepath.Join(dir, "base.fastq")
			deltaPath := filepath.Join(dir, "delta.fastq")
			delta2Path := filepath.Join(dir, "delta2.fastq")
			writeFastqFile(t, basePath, genomeReads(rng, genomes, 120, 60))
			writeFastqFile(t, deltaPath, genomeReads(rng, genomes, 40, 60))
			writeFastqFile(t, delta2Path, genomeReads(rng, genomes, 25, 60))

			build := func(paths ...string) *index.Index {
				idx, err := index.Build(paths, opts)
				if err != nil {
					t.Fatal(err)
				}
				return idx
			}
			baseArt := filepath.Join(dir, "base.mpa")
			mergedArt := filepath.Join(dir, "merged.mpa")
			merged2Art := filepath.Join(dir, "merged2.mpa")

			// Base run with artifact emit.
			bcfg := Default(build(basePath))
			c.apply(&bcfg)
			bcfg.ArtifactOut = baseArt
			if _, err := Run(bcfg); err != nil {
				t.Fatal(err)
			}

			// Incremental: delta index + base artifact.
			icfg := Default(build(deltaPath))
			c.apply(&icfg)
			icfg.ArtifactIn = baseArt
			icfg.ArtifactDelta = true
			icfg.ArtifactOut = mergedArt
			inc, err := Run(icfg)
			if err != nil {
				t.Fatal(err)
			}

			// Full recompute over base ∪ delta (same file order, so the
			// same global read IDs as the incremental rebasing).
			fcfg := Default(build(basePath, deltaPath))
			c.apply(&fcfg)
			full, err := Run(fcfg)
			if err != nil {
				t.Fatal(err)
			}

			if inc.Reads != full.Reads {
				t.Fatalf("reads %d vs %d", inc.Reads, full.Reads)
			}
			assertSameLabels(t, canonLabels(full.Labels), inc.Labels)
			if inc.Tuples != full.Tuples {
				t.Fatalf("tuples %d vs %d", inc.Tuples, full.Tuples)
			}
			if !slicesEqualU64(inc.KmerFreqHist, full.KmerFreqHist) {
				t.Fatal("frequency histograms differ from full recompute")
			}
			if inc.LargestSize != full.LargestSize {
				t.Fatalf("largest size %d vs %d", inc.LargestSize, full.LargestSize)
			}

			// Chain a second delta off the merged artifact.
			i2cfg := Default(build(delta2Path))
			c.apply(&i2cfg)
			i2cfg.ArtifactIn = mergedArt
			i2cfg.ArtifactDelta = true
			i2cfg.ArtifactOut = merged2Art
			inc2, err := Run(i2cfg)
			if err != nil {
				t.Fatal(err)
			}
			f2cfg := Default(build(basePath, deltaPath, delta2Path))
			c.apply(&f2cfg)
			full2, err := Run(f2cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameLabels(t, canonLabels(full2.Labels), inc2.Labels)
			if inc2.Tuples != full2.Tuples {
				t.Fatalf("chained tuples %d vs %d", inc2.Tuples, full2.Tuples)
			}
		})
	}
}

// TestIncrementalOutput checks the delta-side FASTQ partitioning: the
// incremental run writes output for the delta reads only, grouped by the
// combined components.
func TestIncrementalOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	opts := smallOpts()
	genomes := makeGenomes(rng, 3, 400)
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.fastq")
	deltaPath := filepath.Join(dir, "delta.fastq")
	writeFastqFile(t, basePath, genomeReads(rng, genomes, 80, 50))
	deltaSeqs := genomeReads(rng, genomes, 30, 50)
	writeFastqFile(t, deltaPath, deltaSeqs)

	baseIdx, err := index.Build([]string{basePath}, opts)
	if err != nil {
		t.Fatal(err)
	}
	deltaIdx, err := index.Build([]string{deltaPath}, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseArt := filepath.Join(dir, "base.mpa")
	bcfg := Default(baseIdx)
	bcfg.Tasks = 2
	bcfg.ArtifactOut = baseArt
	if _, err := Run(bcfg); err != nil {
		t.Fatal(err)
	}

	icfg := Default(deltaIdx)
	icfg.Tasks = 2
	icfg.ArtifactIn = baseArt
	icfg.ArtifactDelta = true
	icfg.OutDir = filepath.Join(dir, "out")
	inc, err := Run(icfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.LCFiles) == 0 {
		t.Fatal("no output files")
	}
	// Every delta read appears in exactly one output group; records in the
	// LC files belong to the combined largest component.
	var lcRecords, otherRecords int
	for _, p := range inc.LCFiles {
		lcRecords += countFastqRecords(t, p)
	}
	for _, p := range inc.OtherFiles {
		otherRecords += countFastqRecords(t, p)
	}
	if lcRecords+otherRecords != len(deltaSeqs) {
		t.Fatalf("output holds %d+%d records, delta has %d reads",
			lcRecords, otherRecords, len(deltaSeqs))
	}
	deltaLabels := inc.Labels[len(inc.Labels)-len(deltaSeqs):]
	wantLC := 0
	for _, l := range deltaLabels {
		if l == inc.LargestRoot {
			wantLC++
		}
	}
	if lcRecords != wantLC {
		t.Fatalf("LC output holds %d records, %d delta reads are in the largest component",
			lcRecords, wantLC)
	}
}

func countFastqRecords(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := fastq.NewReader(f)
	n := 0
	for {
		_, err := r.Next()
		if err != nil {
			break
		}
		n++
	}
	return n
}

// --- validation and hashing ------------------------------------------------

func TestArtifactConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	td := genDataset(t, rng, smallOpts(), 1, 20, 40)
	base := Default(td.idx)

	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"delta-without-in", func(c *Config) { c.ArtifactDelta = true }, "ArtifactDelta"},
		{"delta-with-max-filter", func(c *Config) {
			c.ArtifactDelta = true
			c.ArtifactIn = "x.mpa"
			c.Filter = Filter{Min: 2, Max: 50}
		}, "ArtifactDelta"},
		{"reload-plus-out", func(c *Config) {
			c.ArtifactIn = "x.mpa"
			c.ArtifactOut = "y.mpa"
		}, "ArtifactOut"},
		{"out-in-missing-dir", func(c *Config) {
			c.ArtifactOut = filepath.Join("/nonexistent-dir-for-test", "y.mpa")
		}, "ArtifactOut"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			err := cfg.Validate()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("field = %s, want %s", ce.Field, tc.field)
			}
		})
	}
}

func TestArtifactHashSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	td := genDataset(t, rng, smallOpts(), 1, 20, 40)
	plain := Default(td.idx).CanonicalHash()

	// A reload and an artifact emit produce the same labels as the direct
	// run: same hash.
	reload := Default(td.idx)
	reload.ArtifactIn = "/some/base.mpa"
	if reload.CanonicalHash() != plain {
		t.Error("plain reload must hash like the direct run")
	}
	emit := Default(td.idx)
	emit.ArtifactOut = "/some/out.mpa"
	if emit.CanonicalHash() != plain {
		t.Error("artifact emit must hash like the direct run")
	}

	// Incremental runs compute a different result keyed on the base.
	inc := Default(td.idx)
	inc.ArtifactIn = "/some/base.mpa"
	inc.ArtifactDelta = true
	if inc.CanonicalHash() == plain {
		t.Error("incremental run must hash differently from the direct run")
	}
	inc2 := inc
	inc2.ArtifactIn = "/other/base.mpa"
	if inc2.CanonicalHash() == inc.CanonicalHash() {
		t.Error("different base artifacts must hash differently")
	}
}

// --- cancellation ----------------------------------------------------------

// armedCancelCtx cancels at the first Err poll after arm() is called.
type armedCancelCtx struct {
	armed atomic.Bool

	mu     sync.Mutex
	done   chan struct{}
	closed bool
}

func newArmedCancelCtx() *armedCancelCtx {
	return &armedCancelCtx{done: make(chan struct{})}
}

func (c *armedCancelCtx) arm() { c.armed.Store(true) }

func (c *armedCancelCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *armedCancelCtx) Done() <-chan struct{}       { return c.done }
func (c *armedCancelCtx) Value(key any) any           { return nil }

func (c *armedCancelCtx) Err() error {
	if !c.armed.Load() {
		return nil
	}
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	c.mu.Unlock()
	return context.Canceled
}

// armOnPipelineDone is a slog.Handler that arms the context when the
// recursive delta run logs its completion — placing the cancellation
// deterministically inside the incremental merge loop, whose first ctx
// poll comes 8192 tuples in.
type armOnPipelineDone struct{ ctx *armedCancelCtx }

func (h *armOnPipelineDone) Enabled(context.Context, slog.Level) bool { return true }
func (h *armOnPipelineDone) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "pipeline done" {
		h.ctx.arm()
	}
	return nil
}
func (h *armOnPipelineDone) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *armOnPipelineDone) WithGroup(string) slog.Handler      { return h }

// TestIncrementalCancelMidMerge cancels an incremental run between the
// delta sub-run and the end of the base/delta merge, then checks that no
// goroutines (merge segment readers' decode goroutines in particular) and
// no scratch files are left behind, and that no merged artifact appears.
// Run under -race this also shakes out unsynchronized shutdown paths.
func TestIncrementalCancelMidMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	opts := smallOpts()
	genomes := makeGenomes(rng, 3, 500)
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.fastq")
	deltaPath := filepath.Join(dir, "delta.fastq")
	// Big enough that the merged stream crosses several 8192-tuple ctx
	// polls.
	writeFastqFile(t, basePath, genomeReads(rng, genomes, 400, 60))
	writeFastqFile(t, deltaPath, genomeReads(rng, genomes, 200, 60))

	baseIdx, err := index.Build([]string{basePath}, opts)
	if err != nil {
		t.Fatal(err)
	}
	deltaIdx, err := index.Build([]string{deltaPath}, opts)
	if err != nil {
		t.Fatal(err)
	}
	baseArt := filepath.Join(dir, "base.mpa")
	bcfg := Default(baseIdx)
	bcfg.ArtifactOut = baseArt
	if _, err := Run(bcfg); err != nil {
		t.Fatal(err)
	}

	scratch := filepath.Join(dir, "scratch")
	if err := os.Mkdir(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	baseGoroutines := runtime.NumGoroutine()

	ctx := newArmedCancelCtx()
	icfg := Default(deltaIdx)
	icfg.Tasks = 2
	icfg.ArtifactIn = baseArt
	icfg.ArtifactDelta = true
	icfg.ArtifactOut = filepath.Join(dir, "merged.mpa")
	icfg.SpillBudgetBytes = MinSpillBudgetBytes
	icfg.SpillDir = scratch
	icfg.Log = slog.New(&armOnPipelineDone{ctx: ctx})
	_, err = RunContext(ctx, icfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	waitGoroutines(t, baseGoroutines, 2, 5*time.Second)
	ents, err := os.ReadDir(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("scratch dir not empty after cancel: %v", ents)
	}
	if _, err := os.Stat(icfg.ArtifactOut); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("merged artifact must not exist after cancel (stat err = %v)", err)
	}
}

// TestIncrementalOutputFailureLeavesNoArtifact fails an incremental run's
// CC-I/O and checks that no merged artifact appears at ArtifactOut: the
// artifact commits after the output is written, so a file at its final
// name always comes from a run that succeeded.
func TestIncrementalOutputFailureLeavesNoArtifact(t *testing.T) {
	td := spillDataset(t, 37, smallOpts())
	dir := t.TempDir()
	base := filepath.Join(dir, "base.mpa")
	bcfg := Default(td.idx)
	bcfg.ArtifactOut = base
	if _, err := Run(bcfg); err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	cfg := Default(td.idx)
	cfg.ArtifactIn, cfg.ArtifactDelta = base, true
	cfg.ArtifactOut = filepath.Join(dir, "merged.mpa")
	cfg.OutDir = filepath.Join(blocker, "parts")
	cfg.SpillBudgetBytes = MinSpillBudgetBytes
	cfg.SpillDir = scratch
	if _, err := Run(cfg); err == nil {
		t.Fatal("run with an unwritable OutDir succeeded")
	}
	if _, err := os.Stat(cfg.ArtifactOut); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("merged artifact exists after a failed CC-I/O (stat err = %v)", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 2 {
		t.Fatalf("ArtifactOut's directory holds %d entries, want base.mpa and not-a-dir", len(ents))
	}
	if ents, _ := os.ReadDir(scratch); len(ents) != 0 {
		t.Fatalf("scratch not empty after a failed run: %v", ents)
	}
}

// TestArtifactEmitCancelLeavesNoParts cancels a run that is emitting an
// artifact and checks the part directory is removed.
func TestArtifactEmitCancelLeavesNoParts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	td := overlappingDataset(t, rng, smallOpts(), 3, 400, 200, 50)
	dir := t.TempDir()
	scratch := filepath.Join(dir, "scratch")
	if err := os.Mkdir(scratch, 0o755); err != nil {
		t.Fatal(err)
	}

	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.ArtifactOut = filepath.Join(dir, "run.mpa")
	cfg.SpillBudgetBytes = MinSpillBudgetBytes
	cfg.SpillDir = scratch
	ctx := newChunkCancelCtx(8)
	_, err := RunContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ents, err := os.ReadDir(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("scratch dir not empty after cancel: %v", ents)
	}
	if _, err := os.Stat(cfg.ArtifactOut); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("artifact must not exist after cancel (stat err = %v)", err)
	}
}
