package obsv

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// histogram.go implements the fixed log-bucket latency histogram behind
// the per-step and jobs-layer latency distributions: bounded memory,
// lock-free Observe, mergeable snapshots, and bucket boundaries that are
// pinned (TestHistogramBucketGolden) so series scraped across versions and
// across processes stay comparable.

// NumHistogramBuckets is the number of finite buckets; one overflow
// (+Inf) bucket follows them.
const NumHistogramBuckets = 36

// histBucket0 is the first bucket's upper bound. Buckets double from
// there: 1µs, 2µs, 4µs, … — 36 finite buckets reach 2^35 µs ≈ 9.5 h,
// beyond any step or job this pipeline runs; everything above lands in
// the +Inf bucket.
const histBucket0 = time.Microsecond

// HistogramBounds returns the fixed upper bounds of the finite buckets.
// The slice is freshly allocated; callers may keep it.
func HistogramBounds() []time.Duration {
	out := make([]time.Duration, NumHistogramBuckets)
	for i := range out {
		out[i] = histBucket0 << uint(i)
	}
	return out
}

// histBucketOf returns the index of the smallest bucket whose upper bound
// is ≥ d (NumHistogramBuckets for the +Inf bucket). Non-positive
// durations land in bucket 0.
func histBucketOf(d time.Duration) int {
	if d <= histBucket0 {
		return 0
	}
	// Smallest i with d ≤ 1µs·2^i  ⇔  i = bits.Len(⌈d/1µs⌉ − 1).
	q := (uint64(d) + uint64(histBucket0) - 1) / uint64(histBucket0)
	i := bits.Len64(q - 1)
	if i > NumHistogramBuckets {
		return NumHistogramBuckets
	}
	return i
}

// Histogram is a fixed log-bucket latency histogram. Observe is lock-free
// (one atomic add per bucket/count/sum); snapshots are deterministic for
// a quiesced histogram. count is added last and loaded first, so a
// snapshot that sees n observations also sees their buckets and sum. A nil
// *Histogram — what a nil collector hands out — is a no-op, so
// instrumentation sites observe unconditionally.
type Histogram struct {
	buckets [NumHistogramBuckets + 1]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

// NewHistogram returns an empty standalone histogram (the jobs layer owns
// its queue/run/total histograms directly, outside any collector).
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Safe on nil (does nothing).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[histBucketOf(d)].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// counts (not cumulative), the total observation count and the duration
// sum. Snapshots merge with Merge, so per-rank and per-job histograms
// fold into fleet-wide ones without losing distribution shape.
type HistogramSnapshot struct {
	// Buckets[i] counts observations in (bound[i-1], bound[i]]; the last
	// entry is the +Inf overflow bucket.
	Buckets [NumHistogramBuckets + 1]uint64 `json:"buckets"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// SumNanos is the sum of all observed durations.
	SumNanos int64 `json:"sum_nanos"`
}

// Snapshot copies the histogram's current state (zero value for nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.SumNanos = h.sum.Load()
	return s
}

// Merge folds a snapshot into the histogram (bucket-wise addition — the
// mergeability that makes per-job histograms aggregate into service-level
// ones). Safe on nil (does nothing).
func (h *Histogram) Merge(s HistogramSnapshot) {
	if h == nil {
		return
	}
	for i, n := range s.Buckets {
		if n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.sum.Add(s.SumNanos)
	h.count.Add(s.Count)
}

// Histogram returns the histogram registered under (rank, name), creating
// it on first use — the same registration pattern as Counter. A nil
// collector returns a nil (no-op) histogram.
func (c *Collector) Histogram(rank int, name string) *Histogram {
	if c == nil {
		return nil
	}
	k := counterKey{name: name, rank: rank}
	c.cmu.Lock()
	h, ok := c.hists[k]
	if !ok {
		h = &Histogram{}
		c.hists[k] = h
	}
	c.cmu.Unlock()
	return h
}

// HistogramValue is one entry of a histogram snapshot set.
type HistogramValue struct {
	// Name is the scoped histogram name, e.g. "step/LocalSort".
	Name string `json:"name"`
	// Rank is the owning task's rank, or -1 for run-wide histograms.
	Rank int `json:"rank"`
	// Snap is the histogram's state at snapshot time.
	Snap HistogramSnapshot `json:"snap"`
}

// Histograms returns a snapshot of every registered histogram, sorted by
// name then rank — deterministic, like Counters.
func (c *Collector) Histograms() []HistogramValue {
	if c == nil {
		return nil
	}
	c.cmu.Lock()
	out := make([]HistogramValue, 0, len(c.hists))
	for k, h := range c.hists {
		out = append(out, HistogramValue{Name: k.name, Rank: k.rank, Snap: h.Snapshot()})
	}
	c.cmu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}
