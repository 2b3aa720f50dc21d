package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"metaprep/internal/index"
)

// runOnce executes the pipeline with the given read-ahead depth applied on
// top of cfg and returns the result. serial pins GOMAXPROCS to 1 for the
// run — the one condition under which prefetchDepth selects synchronous
// chunk reads on the enumerating thread.
func runOnce(t *testing.T, cfg Config, serial bool, depth int) *Result {
	t.Helper()
	if serial {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		if d := cfg.prefetchDepth(); d != 0 {
			t.Fatalf("prefetchDepth() = %d under GOMAXPROCS=1, want 0 (serial)", d)
		}
	}
	cfg.PrefetchChunks = depth
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("serial=%v depth=%d: %v", serial, depth, err)
	}
	return res
}

// assertIdenticalResults requires the bit-identical outputs the prefetcher
// promises: same Labels (not merely the same partition), Tuples,
// Edges and KmerFreqHist.
func assertIdenticalResults(t *testing.T, want, got *Result, what string) {
	t.Helper()
	if !reflect.DeepEqual(want.Labels, got.Labels) {
		t.Fatalf("%s: Labels differ", what)
	}
	if want.Tuples != got.Tuples || want.Edges != got.Edges {
		t.Fatalf("%s: Tuples/Edges %d/%d, want %d/%d",
			what, got.Tuples, got.Edges, want.Tuples, want.Edges)
	}
	if !reflect.DeepEqual(want.KmerFreqHist, got.KmerFreqHist) {
		t.Fatalf("%s: KmerFreqHist differs", what)
	}
}

// TestPrefetchAblationIdentical runs the pipeline with overlapped chunk I/O
// off (the single-CPU serial path) and on at several depths; every variant
// must produce bit-identical results, since the prefetcher only changes when
// bytes are read, never what is parsed.
func TestPrefetchAblationIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	td := overlappingDataset(t, rng, smallOpts(), 5, 400, 160, 40)

	base := Default(td.idx)
	base.Tasks = 2
	base.Threads = 2
	base.Passes = 2

	want := runOnce(t, base, true, 0) // serial reads, no overlap
	assertIdenticalResults(t, want, runOnce(t, base, false, 0), "default depth")
	for _, depth := range []int{1, 2, 3} {
		res := runOnce(t, base, false, depth)
		assertIdenticalResults(t, want, res, fmt.Sprintf("depth %d", depth))
	}
	assertSameLabels(t, naiveLabels(td, 11, false, Filter{}), want.Labels)
}

// TestPrefetchLargeK covers the 128-bit k-mer path under prefetch.
func TestPrefetchLargeK(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	opts := index.Options{K: 35, M: 4, ChunkSize: 2000}
	td := overlappingDataset(t, rng, opts, 4, 300, 100, 60)

	base := Default(td.idx)
	base.Tasks = 2
	base.Threads = 2

	want := runOnce(t, base, true, 0)
	assertIdenticalResults(t, want, runOnce(t, base, false, 2), "large-K prefetch")
	assertSameLabels(t, naiveLabels(td, 35, false, Filter{}), want.Labels)
}

// TestChunkFetcherSerial drives the depth-0 fetcher directly: no reader
// goroutine, one reused buffer, every chunk delivered once in list order with
// exactly the bytes the index says it spans, then the (0, nil, nil) end
// marker — and a read error surfaces from next instead of a short buffer.
func TestChunkFetcherSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	td := overlappingDataset(t, rng, smallOpts(), 3, 300, 120, 40)
	files, err := openInputs(td.idx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	data, err := os.ReadFile(td.paths[0])
	if err != nil {
		t.Fatal(err)
	}
	chunks := make([]int, len(td.idx.Chunks))
	for i := range chunks {
		chunks[i] = len(chunks) - 1 - i // any order the caller lists, not file order
	}
	if len(chunks) < 3 {
		t.Fatalf("test needs several chunks, got %d", len(chunks))
	}
	f := newChunkFetcher(chunks, td.idx, files, 0, nil, nil, 0, 0)
	if f.filled != nil {
		t.Fatal("depth 0 started the overlapped reader")
	}
	for _, want := range chunks {
		ci, buf, err := f.next()
		if err != nil || buf == nil {
			t.Fatalf("next() = (%d, %v, %v), want chunk %d", ci, buf, err, want)
		}
		c := td.idx.Chunks[want]
		if ci != want || !bytes.Equal(buf, data[c.Offset:c.Offset+c.Size]) {
			t.Fatalf("chunk %d: got chunk %d with %d bytes, want the file's [%d,%d)",
				want, ci, len(buf), c.Offset, c.Offset+c.Size)
		}
		f.release(buf)
	}
	if ci, buf, err := f.next(); ci != 0 || buf != nil || err != nil {
		t.Fatalf("after the last chunk next() = (%d, %v, %v), want (0, nil, nil)", ci, buf, err)
	}
	f.close()

	// A file truncated since IndexCreate: the serial read must fail loudly.
	if err := os.Truncate(td.paths[0], td.idx.Chunks[len(chunks)-1].Offset+1); err != nil {
		t.Fatal(err)
	}
	f = newChunkFetcher(chunks[:1], td.idx, files, 0, nil, nil, 0, 0)
	if _, buf, err := f.next(); err == nil || buf != nil {
		t.Fatalf("next() on a truncated chunk = (%v, %v), want an error", buf, err)
	}
}

// TestPrefetchSingleChunkFiles exercises the serial fallback: with at most
// one chunk per thread there is nothing to overlap.
func TestPrefetchSingleChunkFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	opts := index.Options{K: 11, M: 4, ChunkSize: 1 << 20} // one chunk per file
	td := overlappingDataset(t, rng, opts, 3, 200, 80, 40)

	base := Default(td.idx)
	base.Threads = 2
	want := runOnce(t, base, true, 0)
	assertIdenticalResults(t, want, runOnce(t, base, false, 4), "single chunk")
}
