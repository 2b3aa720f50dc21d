package core

import (
	"bytes"
	"context"
	"errors"
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

// TestSpillParityFiltered exercises the buffered-run merge consumer (a
// frequency filter makes edge emission wait for the run's end) and checks
// the partitioned FASTQ output is byte-identical to the in-RAM path's.
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
// at least 4 runs, and the measured peak spill tuple memory stays under the
// budget.
func TestSpillBudgetCompliance(t *testing.T) {
	td := spillDataset(t, 94, smallOpts())
	obs := obsv.New()
	cfg := Default(td.idx)
	cfg.Threads = 2
	cfg.SpillBudgetBytes = MinSpillBudgetBytes
	cfg.Obs = obs
	requireSpill(t, cfg)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	peak := obs.Counter(0, "extsort/peak_tuple_bytes").Value()
	if peak == 0 {
		t.Fatalf("extsort/peak_tuple_bytes was never recorded")
	}
	if peak > uint64(cfg.SpillBudgetBytes) {
		t.Errorf("peak spill tuple memory %d exceeds budget %d", peak, cfg.SpillBudgetBytes)
	}
	if runs := obs.Counter(0, "extsort/runs").Value(); runs < 4 {
		t.Errorf("extsort/runs = %d, want >= 4", runs)
	}
	if spilled := obs.Counter(0, "extsort/bytes_spilled").Value(); spilled == 0 {
		t.Errorf("extsort/bytes_spilled = 0")
	}
}

// TestSpillCancelLeavesNoRunFiles cancels spilling runs at several poll
// depths — landing in the exchange, the spill drain and the k-way merge —
// and checks that no run files survive in SpillDir, no partial result
// escapes, and no goroutine (spill worker, segment readers, rank bodies)
// leaks. Run under -race this shakes out the shutdown ordering between the
// merge readers' stop channels and the pass's deferred cleanup.
func TestSpillCancelLeavesNoRunFiles(t *testing.T) {
	td := spillDataset(t, 96, smallOpts())
	spillDir := t.TempDir()
	chunks := len(td.idx.Chunks)

	base := runtime.NumGoroutine()
	for _, limit := range []int{3, chunks/2 + 2, chunks + 10} {
		cfg := Default(td.idx)
		cfg.Tasks = 2
		cfg.Threads = 2
		cfg.Passes = 2
		cfg.SpillBudgetBytes = MinSpillBudgetBytes
		cfg.SpillDir = spillDir
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
