package obsv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// TestRingRetainsRecentSpans fills a small ring past capacity and checks
// that exactly the newest spans survive, oldest first, that metadata
// events are never evicted, and that the dropped count is exact.
func TestRingRetainsRecentSpans(t *testing.T) {
	c := NewRing(4)
	c.SetProcessName(0, "task 0")
	c.SetThreadName(0, 0, "steps")
	base := c.Epoch()
	for i := 0; i < 10; i++ {
		c.RecordSpan(0, 0, "step", fmt.Sprintf("s%d", i),
			base.Add(time.Duration(i)*time.Millisecond), time.Millisecond, nil)
	}
	if got := c.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := c.Events()
	var metas, spans []string
	for _, ev := range evs {
		if ev.Phase == "M" {
			metas = append(metas, ev.Name)
		} else {
			spans = append(spans, ev.Name)
		}
	}
	if len(metas) != 2 {
		t.Fatalf("metadata events = %v, want 2 entries", metas)
	}
	want := []string{"s6", "s7", "s8", "s9"}
	if fmt.Sprint(spans) != fmt.Sprint(want) {
		t.Fatalf("retained spans = %v, want %v", spans, want)
	}
}

// TestRingTraceValid writes a wrapped ring as a trace and checks the
// output is loadable, ordered, and carries the flight-recorder provenance.
func TestRingTraceValid(t *testing.T) {
	c := NewRing(3)
	c.SetProcessName(1, "task 1")
	base := c.Epoch()
	for i := 0; i < 8; i++ {
		c.RecordSpan(1, 0, "step", fmt.Sprintf("s%d", i),
			base.Add(time.Duration(i)*time.Millisecond), time.Millisecond, nil)
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("ring trace is not JSON: %v", err)
	}
	if doc.OtherData["ring_capacity"] != float64(3) || doc.OtherData["dropped_events"] != float64(5) {
		t.Fatalf("otherData = %v, want ring_capacity 3 / dropped_events 5", doc.OtherData)
	}
	lastTs := -1.0
	seenSpan := false
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if seenSpan {
				t.Fatalf("event %d: metadata after spans", i)
			}
		case "X":
			seenSpan = true
			if ev.Ts < lastTs {
				t.Fatalf("event %d (%s): ts decreases", i, ev.Name)
			}
			lastTs = ev.Ts
		}
	}
	if !seenSpan {
		t.Fatal("no spans in ring trace")
	}
}

// TestHistogramBucketGolden pins the bucket boundaries. Changing them
// breaks comparability of scraped series across versions — if this test
// fails, that is a deliberate breaking change, not a refactor.
func TestHistogramBucketGolden(t *testing.T) {
	bounds := HistogramBounds()
	if len(bounds) != NumHistogramBuckets {
		t.Fatalf("%d bounds, want %d", len(bounds), NumHistogramBuckets)
	}
	want := []time.Duration{
		1 * time.Microsecond, 2 * time.Microsecond, 4 * time.Microsecond,
		8 * time.Microsecond, 16 * time.Microsecond, 32 * time.Microsecond,
		64 * time.Microsecond, 128 * time.Microsecond, 256 * time.Microsecond,
		512 * time.Microsecond, 1024 * time.Microsecond, 2048 * time.Microsecond,
		4096 * time.Microsecond, 8192 * time.Microsecond, 16384 * time.Microsecond,
		32768 * time.Microsecond, 65536 * time.Microsecond, 131072 * time.Microsecond,
		262144 * time.Microsecond, 524288 * time.Microsecond, 1048576 * time.Microsecond,
	}
	for i, w := range want {
		if bounds[i] != w {
			t.Fatalf("bounds[%d] = %v, want %v", i, bounds[i], w)
		}
	}
	// The last finite bucket must comfortably exceed any realistic job.
	if last := bounds[len(bounds)-1]; last < 8*time.Hour {
		t.Fatalf("last bound %v is too small", last)
	}
}

// TestHistogramObserveAndQuantile checks bucket placement at and around
// the boundaries, plus the coarse quantile read-out.
func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{
		0, time.Microsecond, // bucket 0
		time.Microsecond + 1, 2 * time.Microsecond, // bucket 1
		3 * time.Microsecond, // bucket 2
		100 * time.Hour,      // +Inf
	} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 2 || s.Buckets[2] != 1 {
		t.Fatalf("buckets = %v", s.Buckets[:4])
	}
	if s.Buckets[NumHistogramBuckets] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", s.Buckets[NumHistogramBuckets])
	}
	wantSum := int64(0 + 1000 + 1001 + 2000 + 3000 + (100 * time.Hour).Nanoseconds())
	if s.SumNanos != wantSum {
		t.Fatalf("sum = %d, want %d", s.SumNanos, wantSum)
	}
	// The median observation lies in the 2µs bucket: the buckets below it
	// hold fewer than half the observations, those through it at least half.
	if lo, through := s.Buckets[0], s.Buckets[0]+s.Buckets[1]; 2*lo >= s.Count || 2*through < s.Count {
		t.Fatalf("p50 not in the 2µs bucket: buckets = %v", s.Buckets[:4])
	}
}

// TestHistogramMerge folds one snapshot into another histogram and checks
// bucket-wise addition.
func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Observe(time.Microsecond)
	a.Observe(5 * time.Microsecond)
	b.Observe(5 * time.Microsecond)
	b.Merge(a.Snapshot())
	s := b.Snapshot()
	if s.Count != 3 || s.Buckets[0] != 1 || s.Buckets[3] != 2 {
		t.Fatalf("merged snapshot = %+v", s)
	}
	if s.SumNanos != 11000 {
		t.Fatalf("merged sum = %d", s.SumNanos)
	}
}

// TestCollectorHistogramsNilAndSorted covers the registry: nil safety and
// the deterministic snapshot order.
func TestCollectorHistogramsNilAndSorted(t *testing.T) {
	var nilC *Collector
	nilC.Histogram(0, "x").Observe(time.Second) // must not panic
	if hv := nilC.Histograms(); hv != nil {
		t.Fatalf("nil collector has histograms: %v", hv)
	}

	c := New()
	c.Histogram(1, "step/b").Observe(time.Millisecond)
	c.Histogram(0, "step/b").Observe(time.Millisecond)
	c.Histogram(0, "step/a").Observe(time.Millisecond)
	c.Histogram(1, "step/b").Observe(2 * time.Millisecond) // same registration
	hv := c.Histograms()
	if len(hv) != 3 {
		t.Fatalf("%d histograms, want 3", len(hv))
	}
	order := fmt.Sprintf("%s/%d %s/%d %s/%d", hv[0].Name, hv[0].Rank, hv[1].Name, hv[1].Rank, hv[2].Name, hv[2].Rank)
	if order != "step/a/0 step/b/0 step/b/1" {
		t.Fatalf("order = %s", order)
	}
	if hv[2].Snap.Count != 2 {
		t.Fatalf("re-registered histogram count = %d, want 2", hv[2].Snap.Count)
	}
}

// TestLoggerJobID checks the correlation-ID plumbing: a context that went
// through WithJobID stamps every record, in both formats, including
// through WithAttrs/WithGroup derivations.
func TestLoggerJobID(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		var buf bytes.Buffer
		lg, err := NewLogger(&buf, format, slog.LevelInfo)
		if err != nil {
			t.Fatal(err)
		}
		ctx := WithJobID(context.Background(), "j42")
		lg.InfoContext(ctx, "job started", "rank", 3)
		lg.With("component", "jobs").InfoContext(ctx, "derived")
		lg.InfoContext(context.Background(), "no job here")
		out := buf.String()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 3 {
			t.Fatalf("%s: %d lines", format, len(lines))
		}
		if !strings.Contains(lines[0], "j42") || !strings.Contains(lines[1], "j42") {
			t.Fatalf("%s: job ID missing: %q", format, out)
		}
		if strings.Contains(lines[2], "j42") {
			t.Fatalf("%s: job ID leaked into unrelated record: %q", format, lines[2])
		}
	}
	if _, err := NewLogger(&bytes.Buffer{}, "yaml", slog.LevelInfo); err == nil {
		t.Fatal("unknown format accepted")
	}
	// Debug below the configured level is suppressed.
	var buf bytes.Buffer
	lg, _ := NewLogger(&buf, "text", slog.LevelInfo)
	lg.Debug("hidden")
	if buf.Len() != 0 {
		t.Fatalf("debug record leaked: %q", buf.String())
	}
}
