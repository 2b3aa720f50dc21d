package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"metaprep/internal/core"
	"metaprep/internal/model"
	"metaprep/internal/obsv"
	"metaprep/internal/traj"
)

// sampleDrift builds a self-consistent drift report (measured == predicted).
func sampleDrift() *model.DriftReport {
	w := model.PaperWorkload("HG")
	c := model.Cluster{P: 2, T: 2, S: 1}
	d := model.Reconcile(model.Edison(), w, c,
		model.Measured{Steps: model.Predict(model.Edison(), w, c)})
	return &d
}

// waitFor polls cond until it holds or the deadline passes. observeTerminal
// runs after the job's done channel closes, so terminal side effects need a
// grace window.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s did not happen within 5s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTerminalObservability checks the jobs-layer metrics tail: queue/run/
// total latency histograms observe each executed job, the per-rank step
// histograms of a completed run merge into the manager's per-step
// distributions (prefix stripped), and LastDrift carries the run's
// reconciliation.
func TestTerminalObservability(t *testing.T) {
	drift := sampleDrift()
	m := NewManager(Options{Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
		// Two ranks observe the same step; merging must fold them together.
		cfg.Obs.Histogram(0, "step/KmerGen").Observe(3 * time.Millisecond)
		cfg.Obs.Histogram(1, "step/KmerGen").Observe(3 * time.Millisecond)
		cfg.Obs.Histogram(0, "step/LocalSort").Observe(5 * time.Millisecond)
		// Non-step histograms must not leak into the step family.
		cfg.Obs.Histogram(0, "other/thing").Observe(time.Millisecond)
		return &core.Result{Drift: drift}, nil
	}})
	defer m.Stop()

	j, _, err := m.Submit(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 5*time.Second)
	waitFor(t, "terminal histogram observation", func() bool {
		return m.Histograms().Total.Count == 1
	})

	h := m.Histograms()
	if h.Queue.Count != 1 || h.Run.Count != 1 || h.Total.Count != 1 {
		t.Fatalf("latency counts queue=%d run=%d total=%d, want 1 each",
			h.Queue.Count, h.Run.Count, h.Total.Count)
	}
	if h.Total.SumNanos < h.Run.SumNanos {
		t.Fatalf("total (%d ns) < run (%d ns)", h.Total.SumNanos, h.Run.SumNanos)
	}
	if got := h.Steps["KmerGen"].Count; got != 2 {
		t.Fatalf("KmerGen merged count = %d, want 2 (both ranks)", got)
	}
	if got := h.Steps["LocalSort"].Count; got != 1 {
		t.Fatalf("LocalSort merged count = %d, want 1", got)
	}
	for name := range h.Steps {
		if strings.Contains(name, "/") {
			t.Fatalf("step name %q not stripped of its step/ prefix", name)
		}
	}
	if _, ok := h.Steps["other"]; ok {
		t.Fatal("non-step histogram leaked into the step family")
	}
	if d := m.LastDrift(); d != drift {
		t.Fatalf("LastDrift = %v, want the run's report", d)
	}
}

// traceShape is the slice of a Chrome trace dump the tests inspect.
type traceShape struct {
	TraceEvents []struct {
		Ph   string `json:"ph"`
		Name string `json:"name"`
	} `json:"traceEvents"`
	OtherData map[string]any `json:"otherData"`
}

// TestAutoTraceDumpOnFailure checks that a failing job dumps its flight
// recorder to TraceDir without anyone having asked for a trace — and that a
// successful job does not.
func TestAutoTraceDumpOnFailure(t *testing.T) {
	dir := t.TempDir()
	bang := errors.New("bang")
	m := NewManager(Options{TraceDir: dir,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			cfg.Obs.RecordSpan(0, obsv.TidSteps, "step", "KmerGen",
				time.Now(), time.Millisecond, nil)
			if cfg.SplitComponents == 0 {
				return nil, bang
			}
			return &core.Result{}, nil
		}})
	defer m.Stop()

	fail, _, err := m.Submit(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, fail, 5*time.Second)
	waitFor(t, "failure trace dump", func() bool { return m.TracesDumped() == 1 })

	path := filepath.Join(dir, "job-"+fail.ID+".trace.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace dump missing: %v", err)
	}
	var tr traceShape
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace dump is not valid JSON: %v", err)
	}
	found := false
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" && ev.Name == "KmerGen" {
			found = true
		}
	}
	if !found {
		t.Fatal("dumped trace lost the recorded span")
	}

	okCfg := testConfig()
	okCfg.SplitComponents = 2
	ok, _, err := m.Submit(okCfg)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ok, 5*time.Second)
	waitFor(t, "second terminal observation", func() bool {
		return m.Histograms().Total.Count == 2
	})
	if m.TracesDumped() != 1 {
		t.Fatalf("successful job dumped a trace (%d dumps)", m.TracesDumped())
	}
	if _, err := os.Stat(filepath.Join(dir, "job-"+ok.ID+".trace.json")); err == nil {
		t.Fatal("successful job left a trace file")
	}
}

// TestAutoTraceDumpOnSLOBreach checks the third dump trigger: a successful
// but slow job (run time past TraceSLO) dumps its trace like a failure.
func TestAutoTraceDumpOnSLOBreach(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Options{TraceDir: dir, TraceSLO: time.Nanosecond,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			time.Sleep(2 * time.Millisecond)
			return &core.Result{}, nil
		}})
	defer m.Stop()

	j, _, err := m.Submit(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 5*time.Second)
	waitFor(t, "SLO trace dump", func() bool { return m.TracesDumped() == 1 })
	if _, err := os.Stat(filepath.Join(dir, "job-"+j.ID+".trace.json")); err != nil {
		t.Fatalf("SLO breach did not dump a trace: %v", err)
	}
}

// TestTrajectoryAppend checks that every completed job appends one record —
// with the job ID, dataset digest and drift report — to the trajectory file.
func TestTrajectoryAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trajectory.jsonl")
	drift := sampleDrift()
	m := NewManager(Options{Trajectory: path,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			return &core.Result{
				Reads: 10, Tuples: 1000, Components: 3,
				Wall: 2 * time.Second, Drift: drift,
			}, nil
		}})
	defer m.Stop()

	cfg := testConfig()
	j, _, err := m.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 5*time.Second)
	var recs []traj.Record
	waitFor(t, "trajectory append", func() bool {
		recs, _ = traj.Load(path)
		return len(recs) == 1
	})

	r := recs[0]
	if r.Job != j.ID || r.Tasks != cfg.Tasks || r.Threads != cfg.Threads {
		t.Fatalf("record shape = %+v", r)
	}
	if r.Dataset != cfg.Index.Digest()[:12] {
		t.Fatalf("dataset = %q, want index digest prefix", r.Dataset)
	}
	if r.Wall() != 2*time.Second || r.Components != 3 {
		t.Fatalf("record outcome = %+v", r)
	}
	if r.Drift == nil || !finiteDrift(*r.Drift) {
		t.Fatalf("drift lost in trajectory: %+v", r.Drift)
	}
	if r.Time.IsZero() {
		t.Fatal("record not timestamped")
	}
}

// TestWriteTraceAndRingBound checks the GET /jobs/{id}/trace substrate:
// WriteTrace streams a valid trace for a known job (ErrNotFound otherwise)
// and the per-job ring keeps only the most recent RingEvents spans, with
// the loss accounted in otherData.
func TestWriteTraceAndRingBound(t *testing.T) {
	const ringCap = 4
	m := NewManager(Options{RingEvents: ringCap,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			for i := 0; i < 10; i++ {
				cfg.Obs.RecordSpan(0, obsv.TidSteps, "step", "s",
					time.Now(), time.Microsecond, nil)
			}
			return &core.Result{}, nil
		}})
	defer m.Stop()

	if err := m.WriteTrace("nope", io.Discard); !errors.Is(err, ErrNotFound) {
		t.Fatalf("WriteTrace(unknown) = %v, want ErrNotFound", err)
	}

	j, _, err := m.Submit(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 5*time.Second)

	var buf bytes.Buffer
	if err := m.WriteTrace(j.ID, &buf); err != nil {
		t.Fatal(err)
	}
	var tr traceShape
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans != ringCap {
		t.Fatalf("ring retained %d spans, want %d", spans, ringCap)
	}
	if got := tr.OtherData["dropped_events"]; got != float64(10-ringCap) {
		t.Fatalf("dropped_events = %v, want %d", got, 10-ringCap)
	}
	if got := tr.OtherData["ring_capacity"]; got != float64(ringCap) {
		t.Fatalf("ring_capacity = %v, want %d", got, ringCap)
	}
}

// lockedBuf is a goroutine-safe log sink.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJobLogsCarryJobID checks log correlation: the lifecycle records a job
// emits through the manager's logger all carry the job's ID.
func TestJobLogsCarryJobID(t *testing.T) {
	var sink lockedBuf
	lg, err := obsv.NewLogger(&sink, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Options{Logger: lg,
		Runner: func(ctx context.Context, cfg core.Config) (*core.Result, error) {
			// The pipeline logs through cfg.Log with the job context; emulate
			// one such record to check the executor threaded both through.
			cfg.Log.InfoContext(ctx, "pipeline start")
			return &core.Result{}, nil
		}})
	defer m.Stop()

	j, _, err := m.Submit(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 5*time.Second)
	waitFor(t, "job done record", func() bool {
		return strings.Contains(sink.String(), "job done")
	})

	want := map[string]bool{"job started": false, "pipeline start": false, "job done": false}
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		msg, _ := rec["msg"].(string)
		if _, tracked := want[msg]; !tracked {
			continue
		}
		if rec["job"] != j.ID {
			t.Fatalf("record %q job = %v, want %s", msg, rec["job"], j.ID)
		}
		want[msg] = true
	}
	for msg, seen := range want {
		if !seen {
			t.Fatalf("record %q never logged", msg)
		}
	}
}

// finiteDrift reports whether every ratio of d is a positive finite number,
// the invariant the drift report's ε-smoothing guarantees.
func finiteDrift(d model.DriftReport) bool {
	ratios := []float64{d.TotalRatio, d.WireRatio, d.SpillRatio}
	for _, s := range d.Steps {
		ratios = append(ratios, s.Ratio)
	}
	for _, x := range ratios {
		if !(x > 0 && x < math.Inf(1)) { // false for NaN too
			return false
		}
	}
	return true
}
