package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"metaprep/internal/index"
	"metaprep/internal/obsv"
)

// spillDataset generates a dataset large enough that a per-(rank, pass)
// received partition exceeds MinSpillBudgetBytes for every configuration
// the parity matrix uses — otherwise the budget would never trigger and the
// tests would silently exercise the in-RAM path.
func spillDataset(t testing.TB, seed int64, opts index.Options) *testData {
	rng := rand.New(rand.NewSource(seed))
	return overlappingDataset(t, rng, opts, 4, 600, 1500, 50)
}

// requireSpill asserts the plan actually chose the out-of-core path.
func requireSpill(t *testing.T, cfg Config) {
	t.Helper()
	pl, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.spill {
		t.Fatalf("SpillBudgetBytes=%d did not trigger spilling — dataset too small for the test to mean anything", cfg.SpillBudgetBytes)
	}
}

func sameFreqHist(t *testing.T, want, got []uint64) {
	t.Helper()
	for f := range want {
		if want[f] != got[f] {
			t.Fatalf("KmerFreqHist[%d] = %d, want %d", f, got[f], want[f])
		}
	}
}

// TestSpillParity pins the tentpole guarantee: the out-of-core path is
// bit-identical to the in-RAM path — labels, edge counts and the frequency
// spectrum — across task counts, thread counts and passes.
func TestSpillParity(t *testing.T) {
	td := spillDataset(t, 91, smallOpts())
	want := naiveLabels(td, 11, false, Filter{})

	base := Default(td.idx)
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLabels(t, want, ref.Labels)

	cases := []struct {
		name    string
		tasks   int
		threads int
		passes  int
	}{
		{"P1_T2_S1", 1, 2, 1},
		{"P3_T2_S1", 3, 2, 1},
		{"P3_T2_S2", 3, 2, 2},
		{"P2_T3_S1", 2, 3, 1},
		{"P2_T2_S2", 2, 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Default(td.idx)
			cfg.Tasks = c.tasks
			cfg.Threads = c.threads
			cfg.Passes = c.passes
			cfg.SpillBudgetBytes = MinSpillBudgetBytes
			requireSpill(t, cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameLabels(t, want, res.Labels)
			if res.Tuples != ref.Tuples {
				t.Errorf("Tuples = %d, want %d", res.Tuples, ref.Tuples)
			}
			if res.Edges != ref.Edges {
				t.Errorf("Edges = %d, want %d", res.Edges, ref.Edges)
			}
			if res.Components != ref.Components {
				t.Errorf("Components = %d, want %d", res.Components, ref.Components)
			}
			sameFreqHist(t, ref.KmerFreqHist, res.KmerFreqHist)
		})
	}
}

// TestSpillParity128 covers the 128-bit key path (k > 31): 20-byte tuples,
// the two-word loser-tree comparisons and the wide run codec.
func TestSpillParity128(t *testing.T) {
	td := spillDataset(t, 92, index.Options{K: 35, M: 4, ChunkSize: 2000})
	want := naiveLabels(td, 35, false, Filter{})
	for _, passes := range []int{1, 2} {
		cfg := Default(td.idx)
		cfg.Tasks = 2
		cfg.Threads = 2
		cfg.Passes = passes
		cfg.SpillBudgetBytes = MinSpillBudgetBytes
		requireSpill(t, cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("S=%d: %v", passes, err)
		}
		assertSameLabels(t, want, res.Labels)
	}
}

// TestSpillParityFiltered runs the frequency filter over merged groups
// (a Filter.Max drops whole groups only once their length is known) and
// checks the partitioned FASTQ output is byte-identical to the in-RAM
// path's.
func TestSpillParityFiltered(t *testing.T) {
	td := spillDataset(t, 93, smallOpts())
	filter := Filter{Min: 2, Max: 200}

	run := func(budget int64) *Result {
		cfg := Default(td.idx)
		cfg.Tasks = 2
		cfg.Threads = 2
		cfg.Filter = filter
		cfg.OutDir = t.TempDir()
		cfg.SpillBudgetBytes = budget
		if budget > 0 {
			requireSpill(t, cfg)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(0)
	res := run(MinSpillBudgetBytes)

	assertSameLabels(t, canonLabels(ref.Labels), res.Labels)
	sameFreqHist(t, ref.KmerFreqHist, res.KmerFreqHist)
	if res.Edges != ref.Edges {
		t.Errorf("Edges = %d, want %d", res.Edges, ref.Edges)
	}
	catBytes := func(paths []string) []byte {
		var buf bytes.Buffer
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(b)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(catBytes(ref.LCFiles), catBytes(res.LCFiles)) {
		t.Errorf("largest-component output differs between in-RAM and spill paths")
	}
	if !bytes.Equal(catBytes(ref.OtherFiles), catBytes(res.OtherFiles)) {
		t.Errorf("remainder output differs between in-RAM and spill paths")
	}
}

// TestSpillBudgetCompliance pins the acceptance criterion: with a budget
// about an eighth of the partition's tuple bytes, the run completes, spills
// at least 4 runs, generates in at least 2 rounds, and the measured peak
// tuple memory — generation buffer, run builders and merge blocks — stays
// under the budget. The fixture's chunks are small enough that no single
// chunk's pass-range tuples exceed a budget/8 generation slot, so the chunk
// floor never applies and the bound is the budget itself.
func TestSpillBudgetCompliance(t *testing.T) {
	td := spillDataset(t, 94, smallOpts())
	obs := obsv.New()
	cfg := Default(td.idx)
	cfg.Threads = 2
	cfg.SpillBudgetBytes = MinSpillBudgetBytes
	cfg.Obs = obs
	requireSpill(t, cfg)
	pl, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if floor := chunkFloorBytes(pl); floor > uint64(cfg.SpillBudgetBytes)/8 {
		t.Fatalf("fixture error: a chunk holds %d pass-range tuple bytes, more than budget/8", floor)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	peak := obs.Counter(0, "extsort/peak_tuple_bytes").Value()
	if peak == 0 {
		t.Fatalf("extsort/peak_tuple_bytes was never recorded")
	}
	if peak > uint64(cfg.SpillBudgetBytes) {
		t.Errorf("peak tuple memory %d exceeds budget %d", peak, cfg.SpillBudgetBytes)
	}
	if rounds := obs.Counter(0, "kmergen/rounds").Value(); rounds < 2 {
		t.Errorf("kmergen/rounds = %d, want >= 2", rounds)
	}
	if runs := obs.Counter(0, "extsort/runs").Value(); runs < 4 {
		t.Errorf("extsort/runs = %d, want >= 4", runs)
	}
	if spilled := obs.Counter(0, "extsort/bytes_spilled").Value(); spilled == 0 {
		t.Errorf("extsort/bytes_spilled = 0")
	}
}

// chunkFloorBytes is the largest pass-range tuple volume of any one chunk:
// the smallest generation slot a round of whole chunks can have.
func chunkFloorBytes(pl *plan) uint64 {
	var most uint64
	for s := 0; s < pl.cfg.Passes; s++ {
		lo, hi := pl.pt.PassRange(s)
		for ci := range pl.idx.Chunks {
			most = max(most, pl.idx.Chunks[ci].Hist.RangeCount(lo, hi))
		}
	}
	return most * pl.bytesPerTuple()
}

// TestSpillRoundsMatrix stresses the round loop: small chunks and the
// minimum budget give every spilling pass many KmerGen → exchange rounds,
// across task and thread counts and both key widths. Labels must match the
// independent naiveLabels oracle, the tuple count the index's, and edges
// and the frequency spectrum the one-round in-RAM run of the same shape.
func TestSpillRoundsMatrix(t *testing.T) {
	for _, w := range []struct {
		name string
		k    int
	}{{"64bit", 11}, {"128bit", 35}} {
		td := spillDataset(t, 95, index.Options{K: w.k, M: 4, ChunkSize: 600})
		want := naiveLabels(td, w.k, false, Filter{})
		for _, tasks := range []int{1, 2, 3} {
			for _, threads := range []int{1, 2} {
				name := fmt.Sprintf("%s/P%d_T%d", w.name, tasks, threads)
				t.Run(name, func(t *testing.T) {
					cfg := Default(td.idx)
					cfg.Tasks, cfg.Threads, cfg.Passes = tasks, threads, 2
					ref, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.SpillBudgetBytes = MinSpillBudgetBytes
					requireSpill(t, cfg)
					obs := obsv.New()
					cfg.Obs = obs
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					assertSameLabels(t, want, res.Labels)
					if rounds := counterTotal(obs, "kmergen/rounds"); rounds < uint64(2*tasks) {
						t.Errorf("kmergen/rounds = %d over %d tasks, want >= 2 each", rounds, tasks)
					}
					if res.Edges != ref.Edges {
						t.Errorf("Edges = %d, in-RAM %d", res.Edges, ref.Edges)
					}
					if res.Tuples != td.idx.TotalKmers || ref.Tuples != td.idx.TotalKmers {
						t.Errorf("Tuples = %d spilling, %d in RAM, index %d", res.Tuples, ref.Tuples, td.idx.TotalKmers)
					}
					sameFreqHist(t, ref.KmerFreqHist, res.KmerFreqHist)
				})
			}
		}
	}
}

// TestSpillRoundsUneven runs a shape where the ranks plan different round
// counts — rank 0 owns dense chunks of long reads, rank 1 mostly sparse
// chunks of short ones — so rank 1 runs trailing empty rounds, sending and
// receiving empty messages to keep the all-to-alls matched.
func TestSpillRoundsUneven(t *testing.T) {
	opts := index.Options{K: 11, M: 4, ChunkSize: 1000}
	dense := spillDataset(t, 99, opts)
	sparse := genDataset(t, rand.New(rand.NewSource(99)), opts, 1, 3000, 13)
	td := &testData{
		paths: append(append([]string(nil), dense.paths...), sparse.paths...),
		seqs:  append(append([][]byte(nil), dense.seqs...), sparse.seqs...),
	}
	idx, err := index.Build(td.paths, opts)
	if err != nil {
		t.Fatal(err)
	}
	td.idx = idx
	want := naiveLabels(td, 11, false, Filter{})

	cfg := Default(idx)
	cfg.Tasks, cfg.Threads, cfg.Passes = 2, 2, 2
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SpillBudgetBytes = MinSpillBudgetBytes
	pl, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uneven := false
	for s := range pl.roundCuts {
		if len(pl.roundCuts[s][0]) != len(pl.roundCuts[s][1]) {
			uneven = true
		}
	}
	if !pl.spill || !uneven {
		t.Fatalf("fixture error: spill=%v, round cuts %v — want ranks with different round counts", pl.spill, pl.roundCuts)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLabels(t, want, res.Labels)
	if res.Tuples != ref.Tuples || res.Edges != ref.Edges {
		t.Errorf("tuples/edges = %d/%d, in-RAM %d/%d", res.Tuples, res.Edges, ref.Tuples, ref.Edges)
	}
	sameFreqHist(t, ref.KmerFreqHist, res.KmerFreqHist)
}

// TestSpillCancelLeavesNoRunFiles cancels spilling runs at several poll
// depths — landing in the first KmerGen round, in a later round (the
// pass-long chunk fetchers mid-stream, the spill worker holding earlier
// rounds' runs), and in the k-way merge — and checks that no run files
// survive in SpillDir, no partial result escapes, and no goroutine (chunk
// fetchers, spill worker, segment readers, rank bodies) leaks. Run under
// -race this shakes out the shutdown ordering between the merge readers'
// stop channels and the pass's deferred cleanup.
func TestSpillCancelLeavesNoRunFiles(t *testing.T) {
	td := spillDataset(t, 96, smallOpts())
	spillDir := t.TempDir()
	chunks := len(td.idx.Chunks)
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.Passes = 2
	cfg.SpillBudgetBytes = MinSpillBudgetBytes
	cfg.SpillDir = spillDir
	cfg.PrefetchChunks = 2 // fetcher goroutines run even on a single-CPU host
	if pl, err := newPlan(cfg); err != nil || pl.rounds[0] < 4 {
		t.Fatalf("fixture error: want >= 4 rounds in pass 0 so a cancel lands mid-pass (err %v)", err)
	}

	base := runtime.NumGoroutine()
	for _, limit := range []int{3, chunks/2 + 2, chunks + 10} {
		ctx := newChunkCancelCtx(limit)
		res, err := RunContext(ctx, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("limit=%d: err = %v, want context.Canceled", limit, err)
		}
		if res != nil {
			t.Fatalf("limit=%d: partial result escaped cancellation", limit)
		}
		ents, err := os.ReadDir(spillDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			t.Fatalf("limit=%d: spill dir not empty after cancel: %v", limit, names)
		}
	}
	waitGoroutines(t, base, 2, 5*time.Second)
}

// TestSpillNotTriggeredUnderBudget: a budget at least as large as the worst
// received partition keeps the plan on the in-RAM path.
func TestSpillNotTriggeredUnderBudget(t *testing.T) {
	td := spillDataset(t, 97, smallOpts())
	cfg := Default(td.idx)
	cfg.SpillBudgetBytes = 1 << 30
	pl, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pl.spill {
		t.Fatalf("1 GiB budget triggered spilling on a toy dataset")
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tuples == 0 {
		t.Fatalf("run produced no tuples")
	}
}

// TestSpillConfigValidation covers the typed errors for the out-of-core
// knobs: budget bounds and spill-dir existence/writability.
func TestSpillConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	td := genDataset(t, rng, smallOpts(), 1, 10, 30)

	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"negative budget",
			Config{Index: td.idx, Tasks: 1, Threads: 1, Passes: 1, SpillBudgetBytes: -1},
			"SpillBudgetBytes"},
		{"budget below minimum",
			Config{Index: td.idx, Tasks: 1, Threads: 1, Passes: 1, SpillBudgetBytes: MinSpillBudgetBytes - 1},
			"SpillBudgetBytes"},
		{"dir without budget",
			Config{Index: td.idx, Tasks: 1, Threads: 1, Passes: 1, SpillDir: os.TempDir()},
			"SpillDir"},
		{"dir does not exist",
			Config{Index: td.idx, Tasks: 1, Threads: 1, Passes: 1,
				SpillBudgetBytes: MinSpillBudgetBytes, SpillDir: "/nonexistent/metaprep-spill"},
			"SpillDir"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", c.name)
			}
			if !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("error does not wrap ErrInvalidConfig: %v", err)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error is not a *ConfigError: %v", err)
			}
			if ce.Field != c.field {
				t.Errorf("Field = %q, want %q (%v)", ce.Field, c.field, err)
			}
		})
	}

	// A regular file is not a usable spill dir.
	f := td.paths[0]
	cfg := Config{Index: td.idx, Tasks: 1, Threads: 1, Passes: 1,
		SpillBudgetBytes: MinSpillBudgetBytes, SpillDir: f}
	var ce *ConfigError
	if err := cfg.Validate(); !errors.As(err, &ce) || ce.Field != "SpillDir" {
		t.Errorf("file-as-SpillDir: err = %v, want SpillDir ConfigError", err)
	}
}

// TestSpillPassAllocs pins that a spilling task allocates its working set
// once: builders, chunk buffers, the run writer's encode buffers, the
// worker's sort tables, the merge readers and LocalCC's retry buffers all
// live for the whole run, so doubling the passes adds only a small
// constant per pass to what a warm Run allocates, and a whole Run
// allocates little beyond its planned memory.
func TestSpillPassAllocs(t *testing.T) {
	td := spillDataset(t, 98, smallOpts())
	run := func(passes int) (uint64, *Result) {
		cfg := Default(td.idx)
		cfg.Tasks, cfg.Threads, cfg.Passes = 2, 2, passes
		cfg.SpillBudgetBytes = MinSpillBudgetBytes
		cfg.PrefetchChunks = 1
		requireSpill(t, cfg)
		if _, err := Run(cfg); err != nil { // warm
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, res
	}
	a2, res := run(2)
	a4, _ := run(4)
	perPass := (int64(a4) - int64(a2)) / 2
	t.Logf("TotalAlloc: %d B at 2 passes, %d B at 4; %d B per added pass", a2, a4, perPass)
	if perPass > spillPassAllocBound {
		t.Errorf("each added pass allocates %d B, more than %d B: a pass re-allocates part of the task's working set",
			perPass, spillPassAllocBound)
	}
	var planned int64
	for _, rep := range res.PerTask {
		planned += rep.MemoryBytes
	}
	// Beyond the plan: rank 0's flattened labels and component sizes and
	// the result's component map, each O(R).
	bound := planned + 16*int64(res.Reads) + 1<<20
	t.Logf("Run allocates %d B; planned %d B over %d tasks, bound %d B", a2, planned, len(res.PerTask), bound)
	if int64(a2) > bound {
		t.Errorf("a 2-pass Run allocates %d B, more than its planned %d B + 16R + 1 MiB = %d B", a2, planned, bound)
	}
}

// spillPassAllocBound is what TestSpillPassAllocs lets one added spilling
// pass allocate: per-pass tables and goroutines, none of it proportional
// to the pass's tuples.
const spillPassAllocBound = 64 << 10

// counterTotal sums a counter over every rank.
func counterTotal(obs *obsv.Collector, name string) uint64 {
	var n uint64
	for _, cv := range obs.Counters() {
		if cv.Name == name {
			n += cv.Value
		}
	}
	return n
}
