package obsv

import (
	"io"
	"sort"
	"sync/atomic"

	"metaprep/internal/stats"
)

// RankGlobal is the rank label of counters that describe the whole run
// rather than a single task (e.g. the process-wide radix pass tallies).
const RankGlobal = -1

// counterKey identifies one registered counter: a step-scoped name plus
// the owning rank (RankGlobal for run-wide counters).
type counterKey struct {
	name string
	rank int
}

// Counter is a monotonically increasing atomic counter. A nil *Counter —
// what a nil collector hands out — is a no-op, so instrumentation sites
// can hold and Add to counters unconditionally.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on nil (does nothing).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the counter registered under (rank, name), creating it
// on first use. Registration takes a mutex; subsequent Adds are lock-free
// atomics. Callers on hot paths should resolve the counter once and keep
// the pointer. A nil collector returns a nil (no-op) counter.
func (c *Collector) Counter(rank int, name string) *Counter {
	if c == nil {
		return nil
	}
	k := counterKey{name: name, rank: rank}
	c.cmu.Lock()
	ctr, ok := c.counters[k]
	if !ok {
		ctr = &Counter{}
		c.counters[k] = ctr
	}
	c.cmu.Unlock()
	return ctr
}

// CounterValue is one entry of a counter snapshot.
type CounterValue struct {
	// Name is the step-scoped counter name, e.g. "kmergen/bytes_read".
	Name string `json:"name"`
	// Rank is the owning task's rank, or -1 for run-wide counters.
	Rank int `json:"rank"`
	// Value is the count at snapshot time.
	Value uint64 `json:"value"`
}

// Counters returns a snapshot of every registered counter, sorted by name
// then rank — a deterministic order, so identical runs yield identical
// snapshots (see TestCounterSnapshotDeterminism).
func (c *Collector) Counters() []CounterValue {
	if c == nil {
		return nil
	}
	c.cmu.Lock()
	out := make([]CounterValue, 0, len(c.counters))
	for k, ctr := range c.counters {
		out = append(out, CounterValue{Name: k.name, Rank: k.rank, Value: ctr.Value()})
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

// CountersTable renders the counter snapshot as an aligned text table in
// the repo's usual stats.Table style. Run-wide counters show rank "-".
func (c *Collector) CountersTable() *stats.Table {
	t := stats.NewTable("Counter", "Rank", "Value")
	for _, cv := range c.Counters() {
		rank := any(cv.Rank)
		if cv.Rank == RankGlobal {
			rank = "-"
		}
		t.AddRow(cv.Name, rank, cv.Value)
	}
	return t
}

// WriteCountersCSV writes the counter snapshot as CSV with a header row.
func (c *Collector) WriteCountersCSV(w io.Writer) error {
	return c.CountersTable().WriteCSV(w)
}
