package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// hash.go defines the canonical configuration hash used as half of the job
// service's content-addressed result-cache key (the other half is the index
// digest, index.Index.Digest). Two Config values that mean the same run
// must hash identically, whatever order their fields were assigned in and
// whether semantically-equivalent defaults were spelled out or left zero —
// TestCanonicalHashGolden pins the encoding.

// canonicalHashVersion is bumped whenever the set of hashed fields or their
// normalization changes, invalidating every previously cached result rather
// than silently aliasing old entries.
const canonicalHashVersion = 8

// CanonicalHash returns a stable hex digest of the run-defining
// configuration. The encoding is canonical:
//
//   - fields are written in one fixed order with explicit labels, so the
//     hash cannot depend on struct-literal field order;
//   - semantically-equivalent spellings normalize to one form before
//     hashing: PrefetchChunks 0 and 1 (both "double buffering"), a nil and
//     a zero NetworkModel (both "free communication");
//   - non-semantic fields are excluded: the Index pointer (the cache key
//     pairs this hash with the index digest) and the Obs collector
//     (observability never changes results).
func (c Config) CanonicalHash() string {
	h := sha256.New()
	field := func(name string, v any) { fmt.Fprintf(h, "%s=%v\n", name, v) }
	field("version", canonicalHashVersion)
	field("tasks", c.Tasks)
	field("threads", c.Threads)
	field("passes", c.Passes)
	field("filter.min", c.Filter.Min)
	field("filter.max", c.Filter.Max)
	field("ccopt", c.CCOpt)
	field("split_components", c.SplitComponents)
	field("out_dir", c.OutDir)
	// Normalized prefetch depth: the requested read-ahead with 0 and 1 both
	// meaning double buffering. Deliberately NOT prefetchDepth(): that folds
	// in the host's CPU count, and a cache key must hash identically on
	// every machine.
	field("prefetch_depth", max(c.PrefetchChunks, 1))
	// The spill budget makes a distinct run for caching purposes even
	// though results are bit-identical: step timings, spill counters and
	// traces differ. SpillDir and Pool are excluded — where the scratch
	// files live and whether buffers are recycled can never change a result.
	field("spill_budget_bytes", c.SpillBudgetBytes)
	// Incremental repartitioning computes a different result (labels over
	// base∪delta reads), so the mode and the base artifact's identity are
	// run-defining. A plain reload (ArtifactIn without ArtifactDelta)
	// produces the same labels as the direct run and hashes identically;
	// ArtifactOut is excluded like SpillDir — where the artifact lands
	// never changes the result.
	field("artifact_delta", c.ArtifactDelta)
	if c.ArtifactDelta {
		field("artifact_in", c.ArtifactIn)
	}
	// The prefilter is semantic: false positives at any sizing can keep
	// different k-mers, and MinCount > 2 changes labels outright — so both
	// knobs are run-defining. MinCount normalizes through minCount(): 0 and
	// 2 hash identically when the prefilter is on, and a disabled prefilter
	// always hashes as (0, 0).
	field("prefilter.bits_per_kmer", c.Prefilter.BitsPerKmer)
	field("prefilter.min_count", c.Prefilter.minCount())
	if c.Network == nil || (c.Network.Latency == 0 && c.Network.BandwidthBytesPerSec == 0) {
		field("network", "none")
	} else {
		field("network.latency_ns", c.Network.Latency.Nanoseconds())
		field("network.bandwidth_bps", c.Network.BandwidthBytesPerSec)
	}
	return hex.EncodeToString(h.Sum(nil))
}
