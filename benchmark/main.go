// Command benchmark is the repository's repeatable benchmark: one workload
// per process, medians over slices of a long timed section, every output
// verified. See README.md for the metric and workload reference.
//
//	go run ./benchmark -workload batch-inram -seed 1
//	go run ./benchmark -workload query-reads -seed 1 -trace trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"metaprep/internal/stats"
)

// processStart is taken as early as the Go runtime allows; setup_s counts
// from here to the first timed slice.
var processStart = time.Now()

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	quick    bool
	role     string
	dir      string
	fault    string
}

func (o options) traced() bool { return o.trace != "" && o.trace != "0" }

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "the only input to the workload generator")
	fs.Float64Var(&o.seconds, "seconds", 25, "length of the timed section")
	fs.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1 or a file path: traced run, per-layer metrics, spans written to the path")
	fs.BoolVar(&o.quick, "quick", false, "tiny dataset and two slices (tests only; numbers mean nothing)")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "metaprep-bench"), "scratch root (a per-run directory is created beneath it and removed)")
	fs.StringVar(&o.fault, "fault", "", "seeded fault for testing the verifier: ref-label")
	fs.StringVar(&o.role, "role", "", "internal: prep runs the set-up child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.fault != "" && o.fault != "ref-label" {
		fmt.Fprintf(os.Stderr, "benchmark: unknown fault %q\n", o.fault)
		return 2
	}
	// The load generator and the program under test share this one process
	// and this many threads.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	if o.role == "prep" {
		if err := runPrep(w, o); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: prep:", err)
			return 1
		}
		return 0
	}

	rep, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rep.print(os.Stdout, procs)
	if !rep.correct() {
		return 1
	}
	return 0
}

// metric is one reported number. Gated metrics go into the final JSON line;
// the rest are printed for the reader only.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

type report struct {
	workload  workload
	seed      int64
	traced    bool
	facts     []string // dataset sizes, shapes, sample counts
	endToEnd  []metric
	perLayer  []metric
	info      []metric // printed, never in the JSON line
	attempted int
	failed    int
	failures  []string
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *report) fail(format string, a ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
}

// print writes the human-readable table and, as the last line, the JSON
// object the driver parses.
func (r *report) print(out io.Writer, procs int) {
	fmt.Fprintf(out, "workload %s  seed %d  traced %v\n", r.workload.name, r.seed, r.traced)
	fmt.Fprintf(out, "host nproc=%d GOMAXPROCS=%d %s %s/%s\n", runtime.NumCPU(), procs, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, f := range r.facts {
		fmt.Fprintln(out, f)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintln(out, title)
		for _, m := range ms {
			fmt.Fprintf(out, "  %-34s %18.6f %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
	}
	if r.traced {
		section("end-to-end (traced run with a shortened timed section: for orientation, compare only untraced runs):", r.endToEnd)
	} else {
		section("end-to-end:", r.endToEnd)
	}
	section("per-layer:", r.perLayer)
	section("info (not gated):", r.info)
	fmt.Fprintf(out, "ops attempted %d failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(out, "FAIL:", f)
	}

	gated := r.endToEnd
	if r.traced {
		gated = r.perLayer
	}
	for _, m := range gated {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s is %v", m.Name, m.Value)
			fmt.Fprintf(out, "FAIL: metric %s is %v\n", m.Name, m.Value)
		}
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jm{}}
	for _, m := range gated {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			final.Metrics[m.Name] = jm{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	fmt.Fprintln(out, string(b))
}

// median is the middle of xs (0 for an empty sample).
func median(xs []float64) float64 { return stats.Summarize(xs).Median }

// quantile returns the q-quantile (nearest rank) of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
