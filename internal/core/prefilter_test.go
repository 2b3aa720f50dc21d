package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"metaprep/internal/index"
	"metaprep/internal/obsv"
)

// counterTotal sums an observed run's counter across ranks.
func counterTotal(obs *obsv.Collector, name string) uint64 {
	var n uint64
	for _, cv := range obs.Counters() {
		if cv.Name == name {
			n += cv.Value
		}
	}
	return n
}

// prefilter_test.go pins the two-pass probabilistic singleton prefilter: at
// MinCount 2 the labels are identical to the exact pipeline's across every
// schedule (the filter's errors keep extra singletons, never drop repeated
// k-mers), the tuple volume genuinely shrinks, and the knobs validate.

// TestPrefilterLosslessMinCount2 runs the full parity matrix — 64/128-bit
// keys × task counts × in-RAM/spilled LocalSort —
// and checks prefiltered labels against the exact run, plus that the
// prefiltered run enumerated strictly fewer tuples (the dataset mixes
// overlapping reads with pure-noise reads, so true singletons abound).
func TestPrefilterLosslessMinCount2(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    int
	}{
		{"64bit", 11},
		{"128bit", 35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			opts := index.Options{K: tc.k, M: 4, ChunkSize: 2000}
			td := overlappingDataset(t, rng, opts, 4, 400, 160, 50)
			want := naiveLabels(td, tc.k, false, Filter{})

			exact, err := Run(Default(td.idx))
			if err != nil {
				t.Fatal(err)
			}
			assertSameLabels(t, want, exact.Labels)

			for _, tasks := range []int{1, 3} {
				for _, spill := range []int64{0, 1 << 17} {
					cfg := Default(td.idx)
					cfg.Tasks = tasks
					cfg.Threads = 2
					cfg.Passes = 2
					cfg.SpillBudgetBytes = spill
					cfg.Prefilter = Prefilter{BitsPerKmer: 8}
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("P=%d spill=%d: %v", tasks, spill, err)
					}
					assertSameLabels(t, want, res.Labels)
					if res.Tuples >= exact.Tuples {
						t.Errorf("P=%d spill=%d: prefiltered run enumerated %d tuples, exact %d — nothing dropped",
							tasks, spill, res.Tuples, exact.Tuples)
					}
				}
			}
		})
	}
}

// TestPrefilterMinCountRaisesThreshold checks that MinCount composes with
// run semantics the same way Filter.Min does: k-mers below the global
// threshold contribute no edges, so prefiltering at MinCount f matches the
// exact pipeline run with Filter.Min = f when the filter is sized large
// enough that false positives are rare (FP-kept k-mers still pass through
// the exact per-run frequency check downstream — labels can only match or
// keep extra edges, and with Filter.Min set equally, exactly match modulo
// FPs that this sizing makes negligible on the fixture).
func TestPrefilterMinCountRaisesThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	td := overlappingDataset(t, rng, smallOpts(), 4, 400, 150, 40)
	// The exact reference applies the same threshold via the §4.4 filter,
	// so any label difference is a prefilter false *negative* — impossible
	// — or a dropped shared k-mer, which MinCount deliberately causes and
	// Filter.Min mirrors.
	for _, mc := range []int{2, 3, 4} {
		cfg := Default(td.idx)
		cfg.Tasks = 2
		cfg.Threads = 2
		cfg.Filter = Filter{Min: uint32(mc)}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pf := cfg
		pf.Prefilter = Prefilter{BitsPerKmer: 16, MinCount: mc}
		got, err := Run(pf)
		if err != nil {
			t.Fatalf("MinCount=%d: %v", mc, err)
		}
		assertSameLabels(t, canonLabels(want.Labels), got.Labels)
		if got.Tuples > want.Tuples {
			t.Errorf("MinCount=%d: prefiltered tuples %d exceed exact %d", mc, got.Tuples, want.Tuples)
		}
	}
}

// TestPrefilterValidate pins the typed Validate errors for the knobs.
func TestPrefilterValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	td := genDataset(t, rng, smallOpts(), 1, 20, 40)
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"bits negative", func(c *Config) { c.Prefilter.BitsPerKmer = -1 }, "Prefilter.BitsPerKmer"},
		{"bits huge", func(c *Config) { c.Prefilter.BitsPerKmer = 65 }, "Prefilter.BitsPerKmer"},
		{"mincount without bits", func(c *Config) { c.Prefilter.MinCount = 2 }, "Prefilter.MinCount"},
		{"mincount too low", func(c *Config) { c.Prefilter = Prefilter{BitsPerKmer: 8, MinCount: 1} }, "Prefilter.MinCount"},
		{"mincount too high", func(c *Config) { c.Prefilter = Prefilter{BitsPerKmer: 8, MinCount: 9} }, "Prefilter.MinCount"},
		{"artifact out", func(c *Config) {
			c.Prefilter = Prefilter{BitsPerKmer: 8}
			c.ArtifactOut = "x.mpa"
		}, "Prefilter"},
	}
	for _, tc := range cases {
		cfg := Default(td.idx)
		tc.mut(&cfg)
		err := cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: err = %v, want *ConfigError", tc.name, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: field = %q, want %q", tc.name, ce.Field, tc.field)
		}
	}
	// And the happy paths.
	for _, pf := range []Prefilter{{}, {BitsPerKmer: 8}, {BitsPerKmer: 12, MinCount: 4}} {
		cfg := Default(td.idx)
		cfg.Prefilter = pf
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid prefilter %+v rejected: %v", pf, err)
		}
	}
}

// TestPrefilterCancelMidPass1 cancels during the prefilter's pass-1 scan
// (the scan polls ctx at every chunk, before the first pipeline pass
// starts) and checks prompt, leak-free unwinding — under -race this shakes
// out the combine's abort paths.
func TestPrefilterCancelMidPass1(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	td := overlappingDataset(t, rng, smallOpts(), 4, 400, 300, 40)

	base := runtime.NumGoroutine()
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.PrefetchChunks = 2
	cfg.Prefilter = Prefilter{BitsPerKmer: 8}

	ctx := newChunkCancelCtx(3)
	res, err := RunContext(ctx, cfg)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext after mid-prefilter cancel: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("RunContext returned a result alongside cancellation")
	}
	flipped := ctx.cancelledAt()
	if flipped.IsZero() {
		t.Fatalf("context never flipped: the run finished before %d chunk polls", ctx.limit)
	}
	if lat := returned.Sub(flipped); lat > time.Second {
		t.Fatalf("cancellation latency %v, want <= 1s", lat)
	}
	waitGoroutines(t, base, 2, 5*time.Second)
}

// TestPrefilterCounters checks the observability surface: the prefilter
// counters exist and are plausible after an observed run.
func TestPrefilterCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	td := overlappingDataset(t, rng, smallOpts(), 4, 400, 120, 40)
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.Obs = obsv.New()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	exactKmers := counterTotal(cfg.Obs, "kmergen/kmers")

	cfg2 := Default(td.idx)
	cfg2.Tasks = 2
	cfg2.Threads = 2
	cfg2.Prefilter = Prefilter{BitsPerKmer: 8}
	cfg2.Obs = obsv.New()
	if _, err := Run(cfg2); err != nil {
		t.Fatal(err)
	}
	keptKmers := counterTotal(cfg2.Obs, "kmergen/kmers")
	saved := counterTotal(cfg2.Obs, "prefilter/tuples_saved")
	if keptKmers+saved != exactKmers {
		t.Errorf("kept %d + saved %d != exact %d", keptKmers, saved, exactKmers)
	}
	if saved == 0 {
		t.Errorf("prefilter saved no tuples on a singleton-rich dataset")
	}
	if counterTotal(cfg2.Obs, "prefilter/filter_bytes") == 0 {
		t.Errorf("prefilter/filter_bytes not recorded")
	}
	if counterTotal(cfg2.Obs, "prefilter/build_us") == 0 {
		t.Errorf("prefilter/build_us not recorded")
	}
	found := false
	for _, cv := range cfg2.Obs.Counters() {
		if strings.HasPrefix(cv.Name, "prefilter/est_fp_rate") {
			found = true
		}
	}
	if !found {
		t.Errorf("prefilter/est_fp_rate not recorded")
	}
}
