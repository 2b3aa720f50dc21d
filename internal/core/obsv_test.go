package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"metaprep/internal/index"
	"metaprep/internal/obsv"
)

// TestPipelineTraceSchema runs a 2-task pipeline with a collector and checks
// the exported trace: parseable JSON, metadata events before spans, required
// fields on every event, and monotonically non-decreasing timestamps.
func TestPipelineTraceSchema(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	td := overlappingDataset(t, rng, smallOpts(), 4, 400, 160, 40)
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.Passes = 2
	cfg.OutDir = t.TempDir()
	cfg.Obs = obsv.New()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cfg.Obs.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	lastTs := -1.0
	seenSpan := false
	spans, samples := 0, 0
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" {
			t.Fatalf("event %d: empty name", i)
		}
		switch ev.Ph {
		case "M":
			if seenSpan {
				t.Fatalf("event %d: metadata after span events", i)
			}
		case "X":
			seenSpan = true
			spans++
			if ev.Ts < lastTs {
				t.Fatalf("event %d (%s): ts %g < previous %g", i, ev.Name, ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("event %d (%s): missing or negative dur", i, ev.Name)
			}
		case "C":
			// The heap samples taken at step boundaries (memwatch.go).
			seenSpan = true
			samples++
			if ev.Ts < lastTs {
				t.Fatalf("event %d (%s): ts %g < previous %g", i, ev.Name, ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			live, _ := ev.Args["live"].(float64)
			goal, _ := ev.Args["goal"].(float64)
			if ev.Name != "heap" || live <= 0 || goal <= 0 {
				t.Fatalf("event %d: counter sample %q with values %v, want heap live and goal", i, ev.Name, ev.Args)
			}
		default:
			t.Fatalf("event %d (%s): unexpected phase %q", i, ev.Name, ev.Ph)
		}
	}
	if samples == 0 {
		t.Fatal("no heap samples")
	}
	if spans == 0 {
		t.Fatal("no span events")
	}
}

// TestTraceSpansMatchStepTimes checks the reconciliation invariant behind
// `metaprep checktrace`: every call site records its step span with the
// exact duration it adds to StepTimes, so the per-task sum of "step"
// category spans equals StepTimes.Total.
func TestTraceSpansMatchStepTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	td := overlappingDataset(t, rng, smallOpts(), 5, 300, 200, 35)
	cfg := Default(td.idx)
	cfg.Tasks = 3
	cfg.Threads = 2
	cfg.Passes = 2
	cfg.OutDir = t.TempDir()
	cfg.Obs = obsv.New()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sums := make(map[int]time.Duration)
	for _, ev := range cfg.Obs.Events() {
		if ev.Cat == "step" {
			sums[ev.Pid] += ev.Dur
		}
	}
	for _, rep := range res.PerTask {
		if got, want := sums[rep.Rank], rep.Steps.Total(); got != want {
			t.Errorf("task %d: step spans sum to %v, StepTimes.Total is %v", rep.Rank, got, want)
		}
	}
}

// TestRecvScatterSpans checks the receive's detail spans: one
// "recv-scatter" span per received message on each rank's comm track,
// carrying its source and tuple count, in RAM and spilling. The messages'
// tuples add up to every tuple the run generated, and each rank's spans
// sum to no more than its KmerGen-Comm steps, which contain them (what
// `metaprep checktrace` checks).
func TestRecvScatterSpans(t *testing.T) {
	td := spillDataset(t, 31, index.Options{K: 11, M: 4, ChunkSize: 600})
	for _, budget := range []int64{0, MinSpillBudgetBytes} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			cfg := Default(td.idx)
			cfg.Tasks, cfg.Threads, cfg.Passes = 2, 2, 2
			cfg.SpillBudgetBytes = budget
			cfg.Obs = obsv.New()
			if budget > 0 {
				requireSpill(t, cfg)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var tuples uint64
			recv, comm := map[int]time.Duration{}, map[int]time.Duration{}
			for _, ev := range cfg.Obs.Events() {
				switch {
				case ev.Cat == "step" && ev.Name == "KmerGen-Comm":
					comm[ev.Pid] += ev.Dur
				case ev.Name == "recv-scatter":
					if ev.Cat != "detail" || ev.Tid != obsv.TidComm {
						t.Fatalf("recv-scatter span on cat %q tid %d, want detail on the comm track", ev.Cat, ev.Tid)
					}
					src, ok := ev.Args["src"].(int)
					if !ok || src < 0 || src >= cfg.Tasks {
						t.Fatalf("recv-scatter span src = %v", ev.Args["src"])
					}
					n, ok := ev.Args["tuples"].(int)
					if !ok || n < 0 {
						t.Fatalf("recv-scatter span tuples = %v, want a message's count", ev.Args["tuples"])
					}
					tuples += uint64(n)
					recv[ev.Pid] += ev.Dur
				}
			}
			if tuples != res.Tuples {
				t.Errorf("recv-scatter spans carry %d tuples, the run generated %d", tuples, res.Tuples)
			}
			for rank := 0; rank < cfg.Tasks; rank++ {
				if recv[rank] == 0 || recv[rank] > comm[rank] {
					t.Errorf("task %d: recv-scatter spans sum to %v, KmerGen-Comm to %v", rank, recv[rank], comm[rank])
				}
			}
		})
	}
}

// TestCounterSnapshotDeterminism runs the identical configuration twice and
// expects identical counter snapshots. Threads must be 1: with more, lost
// union CASes (unionfind/union_races) depend on scheduling.
// The run-wide mem/ counters measure the process's heap, which no run
// controls: they must be present and non-zero, and are left out of the
// comparison.
func TestCounterSnapshotDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	td := overlappingDataset(t, rng, smallOpts(), 3, 300, 120, 35)
	snap := func() []obsv.CounterValue {
		cfg := Default(td.idx)
		cfg.Tasks = 2
		cfg.Threads = 1
		cfg.Passes = 2
		cfg.Obs = obsv.New()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var out []obsv.CounterValue
		heap := 0
		for _, c := range cfg.Obs.Counters() {
			if c.Rank == obsv.RankGlobal && strings.HasPrefix(c.Name, "mem/") {
				if c.Value == 0 {
					t.Errorf("run counter %s is 0", c.Name)
				}
				heap++
				continue
			}
			out = append(out, c)
		}
		if heap != 2 {
			t.Errorf("%d mem/ run counters, want mem/alloc_bytes and mem/heap_live_peak_bytes", heap)
		}
		return out
	}
	a, b := snap(), snap()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("counter snapshots differ between identical runs:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty counter snapshot")
	}
}

// TestRunCountObsv covers the counting pipeline's instrumentation path.
func TestRunCountObsv(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	td := overlappingDataset(t, rng, smallOpts(), 3, 300, 100, 30)
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Obs = obsv.New()
	res, err := RunCount(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[int]time.Duration)
	for _, ev := range cfg.Obs.Events() {
		if ev.Cat == "step" {
			sums[ev.Pid] += ev.Dur
		}
	}
	if len(sums) != 2 {
		t.Fatalf("step spans for %d tasks, want 2", len(sums))
	}
	var kmers uint64
	for _, cv := range cfg.Obs.Counters() {
		if cv.Name == "kmergen/kmers" {
			kmers += cv.Value
		}
	}
	if kmers != res.Tuples {
		t.Errorf("kmergen/kmers counters sum to %d, result reports %d tuples", kmers, res.Tuples)
	}
}

// BenchmarkPipelineObsv measures the full pipeline with the collector off
// (the nil no-op default), on (unbounded), and in flight-recorder ring mode
// — the EXPERIMENTS.md overhead table. The "off" case must be
// indistinguishable from the pre-observability pipeline. On this tiny
// dataset "on" and "ring" (what the daemon runs on every job) pay the
// collector's fixed per-run span and counter storage, ~10 % of an op.
func BenchmarkPipelineObsv(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	td := overlappingDataset(b, rng, smallOpts(), 4, 500, 400, 45)
	for _, mode := range []struct {
		name string
		mk   func() *obsv.Collector
	}{
		{"off", func() *obsv.Collector { return nil }},
		{"on", obsv.New},
		{"ring", func() *obsv.Collector { return obsv.NewRing(0) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := Default(td.idx)
				cfg.Tasks = 2
				cfg.Threads = 2
				cfg.Obs = mode.mk()
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
