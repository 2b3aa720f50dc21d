package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilCollectorNoOps verifies the no-op contract: every operation on a
// nil collector (and the nil counters and zero spans it hands out) must be
// safe and side-effect free — this is what keeps the disabled hot path
// branch-only.
func TestNilCollectorNoOps(t *testing.T) {
	var c *Collector
	sp := c.StartSpan(0, 0, "step", "x")
	sp.End()
	sp.EndArgs(map[string]any{"k": 1})
	c.RecordSpan(0, 0, "step", "x", time.Now(), time.Second, nil)
	c.SetProcessName(0, "p")
	c.SetThreadName(0, 0, "t")
	ctr := c.Counter(0, "n")
	ctr.Add(5)
	if got := ctr.Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	if ev := c.Events(); ev != nil {
		t.Fatalf("nil collector has events: %v", ev)
	}
	if cv := c.Counters(); cv != nil {
		t.Fatalf("nil collector has counters: %v", cv)
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace on nil: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace is not JSON: %v", err)
	}
}

func TestCounters(t *testing.T) {
	c := New()
	a := c.Counter(1, "alpha")
	a.Add(3)
	c.Counter(0, "alpha").Add(2)
	c.Counter(RankGlobal, "beta").Add(7)
	// Re-registration returns the same counter.
	c.Counter(1, "alpha").Add(1)

	got := c.Counters()
	want := []CounterValue{
		{Name: "alpha", Rank: 0, Value: 2},
		{Name: "alpha", Rank: 1, Value: 4},
		{Name: "beta", Rank: RankGlobal, Value: 7},
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("snapshot[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	table := c.CountersTable().String()
	for _, s := range []string{"alpha", "beta", "Counter", "Rank", "Value"} {
		if !strings.Contains(table, s) {
			t.Errorf("table missing %q:\n%s", s, table)
		}
	}
	var csv bytes.Buffer
	if err := c.WriteCountersCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "beta,-,7") {
		t.Errorf("CSV missing run-global beta row:\n%s", csv.String())
	}
}

func TestCounterConcurrency(t *testing.T) {
	c := New()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctr := c.Counter(0, "shared")
			for i := 0; i < per; i++ {
				ctr.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Counter(0, "shared").Value(); got != workers*per {
		t.Fatalf("shared counter = %d, want %d", got, workers*per)
	}
}

// TestWriteTraceOrdering checks the trace writer's output contract:
// metadata first, then complete events with monotonically non-decreasing
// microsecond timestamps, each with the fields the trace-event format
// requires.
func TestWriteTraceOrdering(t *testing.T) {
	c := New()
	base := c.Epoch()
	c.SetProcessName(1, "task 1")
	c.SetThreadName(1, 0, "steps")
	// Record out of order; the writer must sort.
	c.RecordSpan(1, 0, "step", "later", base.Add(50*time.Millisecond), 10*time.Millisecond, nil)
	c.RecordSpan(0, 0, "step", "earlier", base.Add(10*time.Millisecond), 20*time.Millisecond,
		map[string]any{"pass": 0})
	c.RecordSpan(1, 0, "step", "middle", base.Add(30*time.Millisecond), 5*time.Millisecond, nil)

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	// Metadata first.
	for i, e := range doc.TraceEvents[:2] {
		if e.Ph != "M" {
			t.Errorf("event %d: phase %q, want M", i, e.Ph)
		}
	}
	lastTs := -1.0
	for i, e := range doc.TraceEvents[2:] {
		if e.Ph != "X" {
			t.Errorf("span %d: phase %q, want X", i, e.Ph)
		}
		if e.Name == "" || e.Pid == nil || e.Tid == nil || e.Dur == nil {
			t.Errorf("span %d missing required fields: %+v", i, e)
		}
		if e.Ts < lastTs {
			t.Errorf("span %d: ts %v < previous %v (not monotonic)", i, e.Ts, lastTs)
		}
		lastTs = e.Ts
	}
	// Spot-check units: "earlier" started 10 ms after epoch = 10 000 µs.
	for _, e := range doc.TraceEvents {
		if e.Name == "earlier" {
			if e.Ts < 9_999 || e.Ts > 10_001 {
				t.Errorf("earlier ts = %v µs, want ~10000", e.Ts)
			}
			if e.Dur == nil || *e.Dur < 19_999 || *e.Dur > 20_001 {
				t.Errorf("earlier dur = %v µs, want ~20000", e.Dur)
			}
			if e.Args["pass"] != float64(0) {
				t.Errorf("earlier args = %v", e.Args)
			}
		}
	}
}

func TestSpanWallClock(t *testing.T) {
	c := New()
	sp := c.StartSpan(2, 3, "detail", "sleepy")
	time.Sleep(2 * time.Millisecond)
	sp.EndArgs(map[string]any{"bytes": int64(42)})
	ev := c.Events()
	if len(ev) != 1 {
		t.Fatalf("got %d events", len(ev))
	}
	e := ev[0]
	if e.Pid != 2 || e.Tid != 3 || e.Cat != "detail" || e.Name != "sleepy" {
		t.Errorf("event = %+v", e)
	}
	if e.Dur < 2*time.Millisecond {
		t.Errorf("dur = %v, want ≥ 2ms", e.Dur)
	}
	if e.Args["bytes"] != int64(42) {
		t.Errorf("args = %v", e.Args)
	}
}

// TestRecordCounter checks counter samples: a nil collector ignores them,
// and the trace writes each as a "C" event with its values as args and no
// dur, ordered by ts among the spans.
func TestRecordCounter(t *testing.T) {
	var nilc *Collector
	nilc.RecordCounter(0, "heap", time.Now(), map[string]any{"live": 1})

	c := New()
	t0 := c.Epoch()
	c.RecordSpan(0, TidSteps, "step", "KmerGen", t0.Add(time.Millisecond), time.Millisecond, nil)
	c.RecordCounter(0, "heap", t0.Add(2*time.Millisecond), map[string]any{"live": uint64(5), "goal": uint64(9)})
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Ph   string             `json:"ph"`
			Ts   float64            `json:"ts"`
			Dur  *float64           `json:"dur"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[1]
	if e.Ph != "C" || e.Name != "heap" || e.Dur != nil || e.Ts != 2000 {
		t.Fatalf("counter event = %+v, want ph C, name heap, ts 2000, no dur", e)
	}
	if e.Args["live"] != 5 || e.Args["goal"] != 9 {
		t.Fatalf("counter args = %v, want live 5, goal 9", e.Args)
	}
}
