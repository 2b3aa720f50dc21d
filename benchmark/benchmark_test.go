package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The tests re-execute the test binary as the benchmark, so every workload
// run (and its set-up child) is a fresh process, as in production.
const childEnv = "METAPREP_BENCH_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// bench runs one quick workload and returns its text, its parsed last line
// and whether it exited 0.
func bench(t *testing.T, args ...string) (string, result, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-quick", "-dir", t.TempDir()}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if _, isExit := err.(*exec.ExitError); err != nil && !isExit {
		t.Fatalf("%v: %v", args, err)
	}
	text := stdout.String()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var r result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
		t.Fatalf("%v: last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", args, jerr, text, stderr.String())
	}
	return text, r, err == nil
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricJSON `json:"end_to_end"`
	PerLayer   []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name, Unit, Better string
	Bound              *float64
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// BENCHMARK.json must stay inside the limits the driver enforces, keep its
// bounds no wider than the measured noise budget (README: 15 % on the time
// metrics, 5 % on peak RSS; only setup_s, a sum of seconds of work with three
// samples a run, carries the driver's maximum), and name workloads the
// program has. The program may have more: the query workloads run, but are
// not gated.
func TestBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(bj.Workloads) < 2 || len(bj.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, the driver takes 2 to 8", len(bj.Workloads))
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range bj.Workloads {
		use(w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q is not one of the program's: %s", w.Name, workloadNames())
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range bj.EndToEnd {
		use(m.Name)
		widest := 0.15
		switch m.Name {
		case "setup_s":
			widest = 0.25
		case "peak_rss_mib":
			widest = 0.05
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > widest {
			t.Errorf("%s: bound must be in (0, %v]", m.Name, widest)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(bj.PerLayer, bj.EndToEnd...) {
		if !seen[m.Name] {
			use(m.Name)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
	}
	if bj.RunSeconds < 25 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d: timed sections are at least 25 s", bj.RunSeconds)
	}
}

func checkMetrics(t *testing.T, text string, r result, want []metricJSON) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%d metrics in the result line, want %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing from the result line", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+[-0-9.]+\s+` + regexp.QuoteMeta(m.Unit) + `\s`).MatchString(text) {
			t.Errorf("metric %s is not printed by name with unit %s", m.Name, m.Unit)
		}
	}
}

// daggers are the counts that must repeat exactly for a fixed seed.
var daggers = []string{"core.tuples", "core.edges", "core.components", "core.wire_bytes", "core.spill_bytes",
	"core.plan_mem_mib", "extsort.spill_bytes_per_tuple", "artifact.bytes_per_tuple", "lookup.bytes_per_key", "server.miss_frac"}

func TestQuickWorkloads(t *testing.T) {
	t.Parallel()
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			text, r, ok := bench(t, "-workload", w.name, "-seed", "1")
			if !ok || !r.Correct || r.Failed != 0 || r.Attempted < 3 {
				t.Fatalf("untraced run failed: %+v\n%s", r, text)
			}
			checkMetrics(t, text, r, bj.EndToEnd)
			for _, m := range bj.EndToEnd {
				if r.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics are never 0", m.Name, r.Metrics[m.Name].Value)
				}
			}

			trace := filepath.Join(t.TempDir(), "trace.json")
			text, a, ok := bench(t, "-workload", w.name, "-seed", "1", "-trace", trace)
			if !ok || !a.Correct {
				t.Fatalf("traced run failed: %+v\n%s", a, text)
			}
			checkMetrics(t, text, a, bj.PerLayer)
			checkSpans(t, trace, w)
			if m := regexp.MustCompile(`request median ([0-9.]+) ms`).FindStringSubmatch(text); m == nil {
				t.Error("the request median is not printed beside server.http_json_ms")
			} else if op, sum := mustFloat(t, m[1]), a.Metrics["server.execute_ms"].Value+a.Metrics["server.http_json_ms"].Value; math.Abs(op-sum) > 1e-3 {
				t.Errorf("server.execute_ms + server.http_json_ms = %v, the request median is %v", sum, op)
			}

			_, b, ok := bench(t, "-workload", w.name, "-seed", "1", "-trace", trace)
			if !ok {
				t.Fatal("second traced run failed")
			}
			_, c, ok := bench(t, "-workload", w.name, "-seed", "2", "-trace", trace)
			if !ok {
				t.Fatal("traced run on another seed failed")
			}
			differ := false
			for _, d := range daggers {
				if a.Metrics[d].Value != b.Metrics[d].Value {
					t.Errorf("%s: %v then %v on the same seed", d, a.Metrics[d].Value, b.Metrics[d].Value)
				}
				differ = differ || a.Metrics[d].Value != c.Metrics[d].Value
			}
			if !differ {
				t.Error("no † count changed with the seed: the seed does not reach the generator")
			}
		})
	}
}

// checkSpans reads the span file: every parent exists and starts no later
// than its child, and the layers the workload calls into are present.
func checkSpans(t *testing.T, path string, w workload) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Spans    []span
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != w.name || len(doc.Spans) == 0 {
		t.Fatalf("span file for %q with %d spans", doc.Workload, len(doc.Spans))
	}
	layers := map[string]bool{}
	for i, s := range doc.Spans {
		layers[s.Layer] = true
		if s.ID != i+1 || s.Parent < 0 || s.Parent >= s.ID || s.EndNs < s.StartNs || s.Workload != w.name {
			t.Fatalf("malformed span %+v", s)
		}
		if s.Parent > 0 && doc.Spans[s.Parent-1].StartNs > s.StartNs {
			t.Errorf("span %d starts before its parent %d", s.ID, s.Parent)
		}
	}
	for _, l := range []string{"core", "fastq", "index", "kmer", "radix", "unionfind", "mpirt", "extsort", "artifact", "lookup", "server", "client"} {
		if l == "core" && w.query {
			continue // no Partition call in a query workload's timed section
		}
		if !layers[l] {
			t.Errorf("no span of layer %s", l)
		}
	}
}

// A reference that is wrong in one label must fail the run: exit status,
// result line and failure count.
func TestSeededFaultFails(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"batch-inram", "query-reads"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			text, r, ok := bench(t, "-workload", name, "-fault", "ref-label")
			if ok || r.Correct || r.Failed == 0 {
				t.Errorf("corrupted reference label went unnoticed: exit ok=%v %+v\n%s", ok, r, text)
			}
		})
	}
}

// Memory hygiene: the bounded shape must peak below the in-RAM one even on
// the tiny dataset (about 22-24 MiB against 26; the minimum of two fresh
// processes each, since a Go heap of a few MiB jitters by a GC cycle).
func TestBoundedPeakBelowInRAM(t *testing.T) {
	if raceEnabled {
		t.Skip("peak RSS under -race measures the detector")
	}
	t.Parallel()
	peak := func(name string) float64 {
		best := math.Inf(1)
		for i := 0; i < 2; i++ {
			_, r, ok := bench(t, "-workload", name)
			if !ok {
				t.Fatalf("%s failed", name)
			}
			best = min(best, r.Metrics["peak_rss_mib"].Value)
		}
		return best
	}
	inram, bounded := peak("batch-inram"), peak("batch-bounded")
	if bounded >= inram {
		t.Errorf("batch-bounded peak RSS %.1f MiB is not below batch-inram's %.1f MiB", bounded, inram)
	}
}
