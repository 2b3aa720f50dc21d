// observe.go wires the observability layer into the CLI: the run
// subcommand's profiling/export flags and the checktrace subcommand that
// validates a trace against its metrics snapshot (the invariant CI checks:
// per-task step-span sums reconcile with the reported StepTimes totals).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"metaprep"
	"metaprep/internal/obsv"
)

// stepJSON is one named step duration in the metrics snapshot.
type stepJSON struct {
	Name  string `json:"name"`
	Nanos int64  `json:"nanos"`
}

// taskJSON is one task's report in the metrics snapshot.
type taskJSON struct {
	Rank        int        `json:"rank"`
	Steps       []stepJSON `json:"steps"`
	TotalNanos  int64      `json:"total_nanos"`
	Tuples      uint64     `json:"tuples"`
	Edges       uint64     `json:"edges"`
	BytesSent   int64      `json:"bytes_sent"`
	MergeBytes  int64      `json:"merge_bytes"`
	SpillBytes  int64      `json:"spill_bytes,omitempty"`
	CCIters     int        `json:"cc_iters"`
	MemoryBytes int64      `json:"memory_bytes"`
	// DriftRatio is this task's total time over the model's predicted
	// per-task total (load imbalance shows up as per-task spread here).
	DriftRatio float64 `json:"drift_ratio,omitempty"`
}

// metricsJSON is the -metrics document: the run's aggregate step times (max
// over tasks, the paper's figure quantity), every task's own report, and the
// counter snapshot.
type metricsJSON struct {
	WallNanos int64                   `json:"wall_nanos"`
	StepsMax  []stepJSON              `json:"steps_max"`
	PerTask   []taskJSON              `json:"per_task"`
	Counters  []metaprep.CounterValue `json:"counters"`
	// Drift is the run's model reconciliation (absent with -drift-cal off).
	Drift *metaprep.DriftReport `json:"drift,omitempty"`
}

func stepsToJSON(s metaprep.StepTimes) []stepJSON {
	var out []stepJSON
	s.Each(func(name string, d time.Duration) { out = append(out, stepJSON{Name: name, Nanos: int64(d)}) })
	return out
}

// writeMetrics renders the metrics snapshot for a finished run.
func writeMetrics(path string, res *metaprep.Result, obs *metaprep.Collector) error {
	doc := metricsJSON{
		WallNanos: int64(res.Wall),
		StepsMax:  stepsToJSON(res.Steps),
		Counters:  obs.Counters(),
		Drift:     res.Drift,
	}
	for _, rep := range res.PerTask {
		doc.PerTask = append(doc.PerTask, taskJSON{
			Rank:        rep.Rank,
			Steps:       stepsToJSON(rep.Steps),
			TotalNanos:  int64(rep.Steps.Total()),
			Tuples:      rep.Tuples,
			Edges:       rep.Edges,
			BytesSent:   rep.BytesSent,
			MergeBytes:  rep.MergeBytes,
			SpillBytes:  rep.SpillBytes,
			CCIters:     rep.CCIters,
			MemoryBytes: rep.MemoryBytes,
			DriftRatio:  rep.DriftRatio,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCounters emits the counter snapshot: "-" prints the aligned table to
// stdout, any other path gets CSV.
func writeCounters(path string, obs *metaprep.Collector) error {
	if path == "-" {
		fmt.Print(obs.CountersTable().String())
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteCountersCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfiling begins the CPU profile and pprof server when requested and
// returns a finish function that stops the profile (call it before writing
// the heap profile or exiting).
func startProfiling(cpuprofile, pprofAddr string) (finish func() error, err error) {
	finish = func() error { return nil }
	if pprofAddr != "" {
		bound, errs, err := obsv.StartPprofServer(pprofAddr)
		if err != nil {
			return finish, err
		}
		go func() {
			for e := range errs {
				fmt.Fprintln(os.Stderr, "metaprep: pprof server:", e)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", bound)
	}
	if cpuprofile != "" {
		stop, err := obsv.StartCPUProfile(cpuprofile)
		if err != nil {
			return finish, err
		}
		finish = stop
	}
	return finish, nil
}

// checkEvent mirrors the trace wire format for validation.
type checkEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type checkFile struct {
	TraceEvents []checkEvent `json:"traceEvents"`
}

type checkMetrics struct {
	PerTask []struct {
		Rank       int   `json:"rank"`
		TotalNanos int64 `json:"total_nanos"`
	} `json:"per_task"`
}

// cmdCheckTrace validates a -trace file: well-formed Chrome trace events,
// metadata before spans and counter samples, monotonically non-decreasing
// timestamps, numeric counter values, each task's receive-scatter detail
// spans ("recv-scatter") summing to no more than its KmerGen-Comm step
// spans they lie within, each task's bucket loads ("bucket-sort", one per
// spilled bucket) summing, thread by thread, to no more than its LocalSort
// steps, which charge the slowest thread's — and, when the matching
// -metrics snapshot is given, that each task's "step" span sum matches its
// StepTimes total within the tolerance (1% by default).
func cmdCheckTrace(args []string) error {
	fs := flag.NewFlagSet("checktrace", flag.ExitOnError)
	tracePath := fs.String("trace", "", "trace JSON from 'metaprep run -trace' (required)")
	metricsPath := fs.String("metrics", "", "metrics JSON from the same run, to reconcile step spans against")
	tol := fs.Float64("tol", 0.01, "allowed relative difference between span sums and step totals")
	fs.Parse(args)
	if *tracePath == "" {
		return fmt.Errorf("checktrace: -trace is required")
	}

	raw, err := os.ReadFile(*tracePath)
	if err != nil {
		return err
	}
	var tf checkFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return fmt.Errorf("checktrace: %s: %w", *tracePath, err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("checktrace: %s: no trace events", *tracePath)
	}

	spanSum := map[int]float64{} // pid -> Σ dur of cat=="step" spans, µs
	// pid -> Σ dur of the receive's detail spans and of the exchange steps
	// that contain them, µs.
	recvSum, commSum := map[int]float64{}, map[int]float64{}
	// pid -> thread -> Σ dur of its bucket loads, and pid -> Σ dur of the
	// LocalSort steps they are charged to, µs.
	bucketSum, sortSum := map[int]map[float64]float64{}, map[int]float64{}
	spans, metas, samples := 0, 0, 0
	lastTs := math.Inf(-1)
	seenSpan := false
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("checktrace: event %d: empty name", i)
		}
		switch ev.Ph {
		case "M":
			metas++
			if seenSpan {
				return fmt.Errorf("checktrace: event %d: metadata after span events", i)
			}
		case "X":
			spans++
			seenSpan = true
			if ev.Ts < 0 {
				return fmt.Errorf("checktrace: event %d (%s): negative ts %g", i, ev.Name, ev.Ts)
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				return fmt.Errorf("checktrace: event %d (%s): missing or negative dur", i, ev.Name)
			}
			if ev.Ts < lastTs {
				return fmt.Errorf("checktrace: event %d (%s): ts %g decreases below %g", i, ev.Name, ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			if ev.Cat == "step" {
				spanSum[ev.Pid] += *ev.Dur
			}
			switch {
			case ev.Cat == "step" && ev.Name == "KmerGen-Comm":
				commSum[ev.Pid] += *ev.Dur
			case ev.Cat == "detail" && ev.Name == "recv-scatter":
				recvSum[ev.Pid] += *ev.Dur
			case ev.Cat == "step" && ev.Name == "LocalSort":
				sortSum[ev.Pid] += *ev.Dur
			case ev.Cat == "detail" && ev.Name == "bucket-sort":
				thread, _ := ev.Args["thread"].(float64)
				if bucketSum[ev.Pid] == nil {
					bucketSum[ev.Pid] = map[float64]float64{}
				}
				bucketSum[ev.Pid][thread] += *ev.Dur
			}
		case "C":
			samples++
			seenSpan = true
			if ev.Ts < 0 || ev.Ts < lastTs {
				return fmt.Errorf("checktrace: event %d (%s): counter ts %g negative or below %g", i, ev.Name, ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			if len(ev.Args) == 0 {
				return fmt.Errorf("checktrace: event %d (%s): counter sample without values", i, ev.Name)
			}
			for k, v := range ev.Args {
				if x, ok := v.(float64); !ok || x < 0 {
					return fmt.Errorf("checktrace: event %d (%s): counter value %s = %v is not a non-negative number", i, ev.Name, k, v)
				}
			}
		default:
			return fmt.Errorf("checktrace: event %d (%s): unexpected phase %q", i, ev.Name, ev.Ph)
		}
	}

	for pid, r := range recvSum {
		// The nanosecond slack absorbs float rounding of the µs encoding.
		if r > commSum[pid]+1e-3 {
			return fmt.Errorf("checktrace: task %d: recv-scatter spans sum to %.1fµs, more than the %.1fµs of the KmerGen-Comm steps that contain them",
				pid, r, commSum[pid])
		}
	}

	for pid, threads := range bucketSum {
		for thread, b := range threads {
			if b > sortSum[pid]+1e-3 {
				return fmt.Errorf("checktrace: task %d: thread %g's bucket-sort spans sum to %.1fµs, more than the %.1fµs of its LocalSort steps",
					pid, thread, b, sortSum[pid])
			}
		}
	}

	if *metricsPath != "" {
		mraw, err := os.ReadFile(*metricsPath)
		if err != nil {
			return err
		}
		var mf checkMetrics
		if err := json.Unmarshal(mraw, &mf); err != nil {
			return fmt.Errorf("checktrace: %s: %w", *metricsPath, err)
		}
		if len(mf.PerTask) == 0 {
			return fmt.Errorf("checktrace: %s: no per-task reports", *metricsPath)
		}
		for _, task := range mf.PerTask {
			gotUs := spanSum[task.Rank]
			wantUs := float64(task.TotalNanos) / 1e3
			diff := math.Abs(gotUs - wantUs)
			// Sub-microsecond slack absorbs the µs quantization of the
			// trace encoding on near-zero steps.
			if diff > 1 && diff > *tol*math.Max(wantUs, 1) {
				return fmt.Errorf("checktrace: task %d: step spans sum to %.1fµs, StepTimes total is %.1fµs (diff %.2f%% > %.2f%%)",
					task.Rank, gotUs, wantUs, 100*diff/math.Max(wantUs, 1), 100**tol)
			}
		}
		fmt.Printf("checktrace: OK: %d events (%d spans, %d counter samples, %d metadata), %d tasks reconciled within %.2f%%\n",
			len(tf.TraceEvents), spans, samples, metas, len(mf.PerTask), 100**tol)
		return nil
	}
	fmt.Printf("checktrace: OK: %d events (%d spans, %d counter samples, %d metadata)\n", len(tf.TraceEvents), spans, samples, metas)
	return nil
}
