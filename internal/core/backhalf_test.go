package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"metaprep/internal/fastq"
	"metaprep/internal/index"
	"metaprep/internal/obsv"
)

// backhalf_test.go covers the pipelined delta tree merge and the zero-copy
// overlapped CC-I/O against oracles that share no code with them: labels
// against naiveLabels, merge traffic against the dense tree's closed form,
// partitioned FASTQ bytes against a reader→writer splitter. Also the bounded
// top-component selection, concatFiles error handling, and clean mid-output
// cancellation.

// TestDeltaMergeMatchesDense asserts the pipelined delta merge reaches the
// global components a dense fold of every rank's parent array would — by
// definition the components of the union of all ranks' edges, which
// naiveLabels computes directly — across task counts (powers of two and
// not) and multiple passes.
func TestDeltaMergeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	td := overlappingDataset(t, rng, smallOpts(), 4, 300, 220, 35)
	want := naiveLabels(td, 11, false, Filter{})
	wantSizes := map[uint32]int{}
	for _, l := range want {
		wantSizes[l]++
	}
	wantLargest := 0
	for _, n := range wantSizes {
		wantLargest = max(wantLargest, n)
	}
	for _, tasks := range []int{1, 2, 3, 4, 8} {
		for _, passes := range []int{1, 2} {
			t.Run(fmt.Sprintf("P%d/S%d", tasks, passes), func(t *testing.T) {
				cfg := Default(td.idx)
				cfg.Tasks = tasks
				cfg.Passes = passes
				got, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertSameLabels(t, want, got.Labels)
				if got.Components != len(wantSizes) || got.LargestSize != wantLargest {
					t.Fatalf("components/largest %d/%d, want %d/%d",
						got.Components, got.LargestSize, len(wantSizes), wantLargest)
				}
			})
		}
	}
}

// TestDeltaMergeReducesTraffic pins the wire-byte claim against the dense
// tree's closed form: a dense merge ships every non-root rank's 4R-byte
// parent array once (P−1 sends), and the label broadcast costs another 4R
// per tree hop whatever the merge encoding. On mostly-singleton data the
// delta schedule's sparse baselines plus change-only rounds must come in
// under the dense merge volume.
func TestDeltaMergeReducesTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	td := genDataset(t, rng, smallOpts(), 2, 200, 50)
	cfg := Default(td.idx)
	cfg.Tasks = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mergeBytes int64
	for _, rep := range res.PerTask {
		mergeBytes += rep.MergeBytes
	}
	hops := int64(cfg.Tasks - 1)
	bcast := hops * 4 * int64(td.idx.Reads)
	denseMerge := hops * 4 * int64(td.idx.Reads)
	if mergeBytes < bcast {
		t.Fatalf("MergeBytes %d below the label broadcast's %d", mergeBytes, bcast)
	}
	if delta := mergeBytes - bcast; delta >= denseMerge {
		t.Errorf("delta merge sent %d bytes, the dense tree's closed form is %d", delta, denseMerge)
	}
}

// splitByLabel is the independent CC-I/O oracle: it streams every input
// file through fastq.Reader in order and re-serializes each record with
// fastq.Writer into its component's group — the n largest components
// (largest first, ties toward the smaller root; n = split, or 1 for the
// paper's largest-vs-rest), then the remainder. Single-ended inputs only.
// It shares nothing with writeOutput but the record codec.
func splitByLabel(t *testing.T, idx *index.Index, labels []uint32, split int) [][]byte {
	t.Helper()
	sizes := map[uint32]int{}
	for _, l := range labels {
		sizes[l]++
	}
	roots := make([]uint32, 0, len(sizes))
	for r := range sizes {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool {
		if sizes[roots[i]] != sizes[roots[j]] {
			return sizes[roots[i]] > sizes[roots[j]]
		}
		return roots[i] < roots[j]
	})
	n := min(max(split, 1), len(roots))
	groupOf := map[uint32]int{}
	for g, r := range roots[:n] {
		groupOf[r] = g
	}
	bufs := make([]bytes.Buffer, n+1)
	ws := make([]*fastq.Writer, n+1)
	for g := range ws {
		ws[g] = fastq.NewWriter(&bufs[g])
	}
	readID := 0
	for _, path := range idx.Files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for r := fastq.NewReader(f); ; readID++ {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			g, ok := groupOf[labels[readID]]
			if !ok {
				g = n
			}
			if err := ws[g].Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
	}
	out := make([][]byte, n+1)
	for g, w := range ws {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		out[g] = bufs[g].Bytes()
	}
	return out
}

// assertOutputMatchesSplitter compares a run's partitioned FASTQ with
// splitByLabel's. Threads own contiguous ascending chunk ranges, so each
// group's per-thread files concatenated in (rank, thread) order — the order
// Result lists them — must be the oracle's bytes for that group exactly, and
// OutDir must hold nothing else.
func assertOutputMatchesSplitter(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	groups := res.SplitFiles
	if groups == nil {
		groups = [][]string{res.LCFiles, res.OtherFiles}
	}
	want := splitByLabel(t, cfg.Index, res.Labels, cfg.SplitComponents)
	if len(groups) != len(want) {
		t.Fatalf("%d output groups, the splitter has %d", len(groups), len(want))
	}
	files := 0
	for g, paths := range groups {
		if len(paths) != cfg.Tasks*cfg.Threads {
			t.Fatalf("group %d: %d files, want one per (rank, thread) = %d", g, len(paths), cfg.Tasks*cfg.Threads)
		}
		var got []byte
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, data...)
		}
		if !bytes.Equal(got, want[g]) {
			t.Fatalf("group %d: %d bytes, the splitter wrote %d (or contents differ)", g, len(got), len(want[g]))
		}
		files += len(paths)
	}
	entries, err := os.ReadDir(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != files {
		t.Fatalf("OutDir holds %d entries, Result lists %d files", len(entries), files)
	}
}

// TestBackHalfOutputParity is the byte-exact output suite: for every
// combination of key width, task count, component splitting and filter mode,
// the labels must match naiveLabels and the partitioned FASTQ must be
// byte-for-byte what the reader→writer splitter produces from those labels.
func TestBackHalfOutputParity(t *testing.T) {
	modes := []struct {
		name string
		opts index.Options
	}{
		{"64bit", index.Options{K: 11, M: 4, ChunkSize: 1500}},
		{"128bit", index.Options{K: 45, M: 4, ChunkSize: 1500}},
	}
	filters := []struct {
		name string
		f    Filter
	}{
		{"nofilter", Filter{}},
		{"maxfilter", Filter{Max: 40}},
	}
	for mi, mode := range modes {
		rng := rand.New(rand.NewSource(int64(300 + mi)))
		td := overlappingDataset(t, rng, mode.opts, 4, 260, 160, 60)
		for _, flt := range filters {
			want := naiveLabels(td, mode.opts.K, false, flt.f)
			for _, tasks := range []int{1, 2, 4} {
				for _, split := range []int{0, 3} {
					name := fmt.Sprintf("%s/P%d/split%d/%s", mode.name, tasks, split, flt.name)
					t.Run(name, func(t *testing.T) {
						cfg := Default(td.idx)
						cfg.Tasks = tasks
						cfg.Threads = 2
						cfg.SplitComponents = split
						cfg.Filter = flt.f
						// Force the prefetch goroutines on even on a
						// single-CPU host, so parity covers the overlapped
						// ring path everywhere.
						cfg.PrefetchChunks = 2
						cfg.OutDir = t.TempDir()
						res, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						assertSameLabels(t, want, res.Labels)
						assertOutputMatchesSplitter(t, cfg, res)
					})
				}
			}
		}
	}
}

// TestZeroCopyReencodesNonCanonicalInput feeds the pipeline CRLF input —
// which NextRaw must flag non-verbatim — and checks the partitioned output
// is byte for byte the splitter's: every record re-encoded to canonical
// form, none blitted.
func TestZeroCopyReencodesNonCanonicalInput(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	dir := t.TempDir()
	genome := make([]byte, 300)
	for j := range genome {
		genome[j] = "ACGT"[rng.Intn(4)]
	}
	path := filepath.Join(dir, "crlf.fastq")
	var buf bytes.Buffer
	for i := 0; i < 120; i++ {
		pos := rng.Intn(len(genome) - 40)
		seq := genome[pos : pos+40]
		fmt.Fprintf(&buf, "@r%d\r\n%s\r\n+\r\n%s\r\n", i, seq, bytes.Repeat([]byte("I"), 40))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build([]string{path}, smallOpts())
	if err != nil {
		t.Fatal(err)
	}

	cfg := Default(idx)
	cfg.Tasks = 2
	cfg.OutDir = t.TempDir()
	cfg.Obs = obsv.New()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertOutputMatchesSplitter(t, cfg, res)
	for _, c := range cfg.Obs.Counters() {
		if c.Name == "ccio/verbatim_records" && c.Value != 0 {
			t.Errorf("%d CRLF records were blitted verbatim", c.Value)
		}
	}
}

// TestTopComponents checks the bounded heap selection against a full-sort
// reference on random size maps with deliberate ties.
func TestTopComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	reference := func(sizes map[uint32]int, n int) []uint32 {
		type comp struct {
			root uint32
			size int
		}
		all := make([]comp, 0, len(sizes))
		for r, s := range sizes {
			all = append(all, comp{r, s})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].size != all[j].size {
				return all[i].size > all[j].size
			}
			return all[i].root < all[j].root
		})
		if n > len(all) {
			n = len(all)
		}
		if n < 0 {
			n = 0
		}
		roots := make([]uint32, n)
		for i := 0; i < n; i++ {
			roots[i] = all[i].root
		}
		return roots
	}
	for trial := 0; trial < 50; trial++ {
		sizes := make(map[uint32]int)
		c := rng.Intn(40)
		for i := 0; i < c; i++ {
			// Small size range forces ties; sparse roots exercise ordering.
			sizes[uint32(rng.Intn(1000))] = 1 + rng.Intn(6)
		}
		for _, n := range []int{0, 1, 2, 3, 10, len(sizes), len(sizes) + 5} {
			want := reference(sizes, n)
			got := topComponents(sizes, n)
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d: got %d roots, want %d", trial, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d: roots[%d] = %d, want %d (got %v, want %v)",
						trial, n, i, got[i], want[i], got, want)
				}
			}
		}
	}
}

// TestConcatFiles checks content, ordering and error propagation.
func TestConcatFiles(t *testing.T) {
	dir := t.TempDir()
	var srcs []string
	var want bytes.Buffer
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("src%d", i))
		data := bytes.Repeat([]byte{byte('a' + i)}, 1000*(i+1))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want.Write(data)
		srcs = append(srcs, p)
	}
	dst := filepath.Join(dir, "out")
	if err := concatFiles(dst, srcs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("concatenated %d bytes, want %d", len(got), want.Len())
	}

	// A missing source must surface, not produce a silently short output.
	if err := concatFiles(filepath.Join(dir, "out2"),
		append(srcs, filepath.Join(dir, "missing"))); err == nil {
		t.Fatal("concatFiles with a missing source returned nil")
	}
	// An uncreatable destination must surface too.
	if err := concatFiles(filepath.Join(dir, "no", "such", "dir", "out"), srcs); err == nil {
		t.Fatal("concatFiles with an uncreatable destination returned nil")
	}
}

// TestRunContextCancelMidOutput cancels a run with overlapped zero-copy
// output in the middle of CC-I/O and checks the error surfaces, no partial
// result escapes, and no goroutine — output prefetchers included — leaks.
// Under -race this shakes out the shutdown ordering between writeOutput's
// per-thread fetcher close and the pipeline's deferred backstop close.
func TestRunContextCancelMidOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	td := overlappingDataset(t, rng, smallOpts(), 4, 400, 300, 40)

	base := runtime.NumGoroutine()
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.OutDir = t.TempDir()
	// Keep the prefetch goroutines in play on single-CPU hosts too: the
	// whole point here is shaking out their shutdown ordering.
	cfg.PrefetchChunks = 2

	// Poll sites before the output loop, with S=1: KmerGen polls once per
	// chunk plus once per thread (the end-of-list iteration), each rank polls
	// once at the pass boundary and once before writeOutput. The output loop
	// then polls once per chunk again, so landing the flip half the chunks
	// past that prefix places cancellation mid-CC-I/O deterministically.
	chunks := len(td.idx.Chunks)
	limit := chunks + cfg.Tasks*cfg.Threads + 2*cfg.Tasks + chunks/2
	ctx := newChunkCancelCtx(limit)
	res, err := RunContext(ctx, cfg)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext after mid-output cancel: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("RunContext returned a result alongside cancellation")
	}
	flipped := ctx.cancelledAt()
	if flipped.IsZero() {
		t.Fatalf("context never flipped: the run finished before %d polls", ctx.limit)
	}
	if lat := returned.Sub(flipped); lat > time.Second {
		t.Fatalf("cancellation latency %v, want <= 1s", lat)
	}
	waitGoroutines(t, base, 2, 5*time.Second)
}
