package core

import (
	"testing"
	"time"

	"metaprep/internal/index"
	"metaprep/internal/mpirt"
	"metaprep/internal/obsv"
)

// TestCanonicalHashGolden pins the exact canonical encoding. If this test
// fails because the encoding legitimately changed, bump canonicalHashVersion
// and re-pin — never let old cached results alias the new scheme silently.
func TestCanonicalHashGolden(t *testing.T) {
	def := Config{Tasks: 1, Threads: 1, Passes: 1, CCOpt: true}
	const wantDef = "8f9d9ff9ad240739af376fd086eb480d8654b1a0edfada250181d1ff4fec2cb8"
	if got := def.CanonicalHash(); got != wantDef {
		t.Errorf("CanonicalHash(default) = %s, want %s", got, wantDef)
	}

	full := Config{
		Tasks:           4,
		Threads:         8,
		Passes:          2,
		Filter:          Filter{Min: 2, Max: 1000},
		CCOpt:           true,
		SplitComponents: 3,
		OutDir:          "out",
		PrefetchChunks:  4,
		Network:         &mpirt.NetworkModel{Latency: time.Microsecond, BandwidthBytesPerSec: 8e9},
	}
	const wantFull = "aba05cc993bfca205195a89c9c4fe85e704b980d043a85c30a6c3a7ef2c42f68"
	if got := full.CanonicalHash(); got != wantFull {
		t.Errorf("CanonicalHash(full) = %s, want %s", got, wantFull)
	}
}

// TestCanonicalHashEquivalentSpellings checks that semantically-identical
// configs hash identically: zero values vs spelled-out defaults, nil vs
// zero network model, and the excluded Index/Obs fields.
func TestCanonicalHashEquivalentSpellings(t *testing.T) {
	base := Config{Tasks: 2, Threads: 2, Passes: 1, CCOpt: true}
	want := base.CanonicalHash()

	// PrefetchChunks 0 and 1 both mean double buffering.
	spelled := base
	spelled.PrefetchChunks = 1
	if got := spelled.CanonicalHash(); got != want {
		t.Errorf("PrefetchChunks 0 vs 1 hash differently: %s vs %s", want, got)
	}

	// A nil and a zero NetworkModel both mean free communication.
	zeroNet := base
	zeroNet.Network = &mpirt.NetworkModel{}
	if got := zeroNet.CanonicalHash(); got != want {
		t.Errorf("nil vs zero NetworkModel hash differently: %s vs %s", want, got)
	}

	// Where spill scratch lives can never change a result: SpillDir is
	// excluded from the hash (the budget is not).
	spillA := base
	spillA.SpillBudgetBytes = 1 << 20
	spillB := spillA
	spillB.SpillDir = "/scratch/elsewhere"
	if spillA.CanonicalHash() != spillB.CanonicalHash() {
		t.Errorf("SpillDir leaked into the hash")
	}
	if spillA.CanonicalHash() == want {
		t.Errorf("SpillBudgetBytes did not change the hash")
	}

	// Buffer pooling recycles allocations and can never change a result.
	pooled := base
	pooled.Pool = NewTuplePool()
	if got := pooled.CanonicalHash(); got != want {
		t.Errorf("Pool leaked into the hash: %s vs %s", want, got)
	}

	// The Index pointer and the Obs collector are not run-defining: the
	// index is the other half of the cache key, observability never
	// changes results.
	withIdx := base
	withIdx.Index = &index.Index{Opts: index.Options{K: 27, M: 10}}
	withIdx.Obs = obsv.New()
	if got := withIdx.CanonicalHash(); got != want {
		t.Errorf("Index/Obs leaked into the hash: %s vs %s", want, got)
	}
}

// TestCanonicalHashSensitivity checks that every run-defining field
// perturbs the hash, and that all perturbations are mutually distinct.
func TestCanonicalHashSensitivity(t *testing.T) {
	base := Config{Tasks: 2, Threads: 2, Passes: 1, CCOpt: true}
	mutations := map[string]func(*Config){
		"tasks":              func(c *Config) { c.Tasks = 3 },
		"threads":            func(c *Config) { c.Threads = 4 },
		"passes":             func(c *Config) { c.Passes = 2 },
		"filter.min":         func(c *Config) { c.Filter.Min = 2 },
		"filter.max":         func(c *Config) { c.Filter.Max = 50 },
		"ccopt":              func(c *Config) { c.CCOpt = false },
		"split_components":   func(c *Config) { c.SplitComponents = 2 },
		"out_dir":            func(c *Config) { c.OutDir = "d" },
		"prefetch_depth":     func(c *Config) { c.PrefetchChunks = 3 },
		"spill_budget_bytes": func(c *Config) { c.SpillBudgetBytes = 1 << 20 },
		"network": func(c *Config) {
			c.Network = &mpirt.NetworkModel{Latency: time.Microsecond, BandwidthBytesPerSec: 1e9}
		},
	}
	seen := map[string]string{base.CanonicalHash(): "base"}
	for name, mutate := range mutations {
		c := base
		mutate(&c)
		h := c.CanonicalHash()
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[h] = name
	}
}
