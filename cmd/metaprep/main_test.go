package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metaprep"
	"metaprep/internal/model"
	"metaprep/internal/traj"
)

// writeDataset generates a small paired dataset for CLI tests.
func writeDataset(t *testing.T, dir string) []string {
	t.Helper()
	spec, err := metaprep.Preset("HG", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := metaprep.Generate(spec, dir)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Files
}

func TestCLIIndexRunStats(t *testing.T) {
	dir := t.TempDir()
	files := writeDataset(t, filepath.Join(dir, "data"))
	idxPath := filepath.Join(dir, "ds.idx")

	args := append([]string{"-k", "27", "-paired", "-chunk", "131072", "-out", idxPath}, files...)
	if err := cmdIndex(args); err != nil {
		t.Fatalf("index: %v", err)
	}
	if _, err := os.Stat(idxPath); err != nil {
		t.Fatalf("index file missing: %v", err)
	}

	outDir := filepath.Join(dir, "parts")
	if err := cmdRun([]string{
		"-index", idxPath, "-tasks", "2", "-threads", "2", "-passes", "2",
		"-kf-max", "30", "-outdir", outDir, "-merge-output", "-edison-net",
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(outDir, "lc.fastq")); err != nil {
		t.Fatalf("merged output missing: %v", err)
	}

	if err := cmdRun([]string{
		"-index", idxPath, "-split", "3",
		"-outdir", filepath.Join(dir, "split"),
	}); err != nil {
		t.Fatalf("run -split: %v", err)
	}

	if err := cmdStats([]string{"-index", idxPath}); err != nil {
		t.Fatalf("stats: %v", err)
	}

	// Invalid configurations fail fast with the typed validation error.
	if err := cmdRun([]string{"-index", idxPath, "-tasks", "0"}); !errors.Is(err, metaprep.ErrInvalidConfig) {
		t.Errorf("run -tasks 0: err = %v, want ErrInvalidConfig", err)
	}
	if err := cmdRun([]string{"-index", idxPath, "-kf-min", "9", "-kf-max", "3"}); !errors.Is(err, metaprep.ErrInvalidConfig) {
		t.Errorf("run with inverted filter: err = %v, want ErrInvalidConfig", err)
	}
}

func TestCLIErrors(t *testing.T) {
	if err := cmdIndex([]string{"-out", ""}); err == nil {
		t.Error("index without args succeeded")
	}
	if err := cmdRun([]string{}); err == nil {
		t.Error("run without index succeeded")
	}
	if err := cmdRun([]string{"-index", "/nonexistent"}); err == nil {
		t.Error("run with missing index succeeded")
	}
	if err := cmdStats([]string{}); err == nil {
		t.Error("stats without index succeeded")
	}
	if err := cmdNormalize([]string{}); err == nil {
		t.Error("normalize without args succeeded")
	}
	if err := cmdInterleave([]string{"-out", "x"}); err == nil {
		t.Error("interleave without mates succeeded")
	}
}

func TestCLINormalize(t *testing.T) {
	dir := t.TempDir()
	files := writeDataset(t, filepath.Join(dir, "data"))
	out := filepath.Join(dir, "norm.fastq")
	args := append([]string{"-k", "17", "-target", "5", "-paired", "-out", out}, files...)
	if err := cmdNormalize(args); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	st, err := os.Stat(out)
	if err != nil || st.Size() == 0 {
		t.Fatalf("normalized output missing: %v", err)
	}
}

func TestCLIInterleave(t *testing.T) {
	dir := t.TempDir()
	m1 := filepath.Join(dir, "m1.fastq")
	m2 := filepath.Join(dir, "m2.fastq")
	os.WriteFile(m1, []byte("@a/1\nACGT\n+\nIIII\n"), 0o644)
	os.WriteFile(m2, []byte("@a/2\nTTTT\n+\nIIII\n"), 0o644)
	out := filepath.Join(dir, "il.fastq")
	if err := cmdInterleave([]string{"-out", out, m1, m2}); err != nil {
		t.Fatalf("interleave: %v", err)
	}
	data, _ := os.ReadFile(out)
	if string(data) != "@a/1\nACGT\n+\nIIII\n@a/2\nTTTT\n+\nIIII\n" {
		t.Fatalf("interleaved output = %q", data)
	}
}

func TestParseBytes(t *testing.T) {
	good := map[string]int64{
		"0":      0,
		"65536":  65536,
		"64K":    64 << 10,
		"64KiB":  64 << 10,
		"256m":   256 << 20,
		"2G":     2 << 30,
		"2GB":    2 << 30,
		"1T":     1 << 40,
		" 128M ": 128 << 20,
	}
	for in, want := range good {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "G", "12Q", "-1M", "1.5G", "9999999999G"} {
		if got, err := parseBytes(in); err == nil {
			t.Errorf("parseBytes(%q) = %d, want error", in, got)
		}
	}
}

// TestCLISpillFlags checks the out-of-core knobs parse and reach validation:
// a well-formed spill run completes, a sub-minimum budget fails with the
// typed config error, and a malformed size string fails at parse time.
func TestCLISpillFlags(t *testing.T) {
	dir := t.TempDir()
	files := writeDataset(t, filepath.Join(dir, "data"))
	idxPath := filepath.Join(dir, "ds.idx")
	args := append([]string{"-k", "27", "-paired", "-chunk", "131072", "-out", idxPath}, files...)
	if err := cmdIndex(args); err != nil {
		t.Fatalf("index: %v", err)
	}

	if err := cmdRun([]string{
		"-index", idxPath, "-threads", "2",
		"-spill-budget", "64K", "-spill-dir", t.TempDir(),
	}); err != nil {
		t.Fatalf("spill run: %v", err)
	}
	if err := cmdRun([]string{"-index", idxPath, "-spill-budget", "1K"}); !errors.Is(err, metaprep.ErrInvalidConfig) {
		t.Errorf("run -spill-budget 1K: err = %v, want ErrInvalidConfig", err)
	}
	if err := cmdRun([]string{"-index", idxPath, "-spill-budget", "lots"}); err == nil ||
		errors.Is(err, metaprep.ErrInvalidConfig) {
		t.Errorf("run -spill-budget lots: err = %v, want a parse error", err)
	}
}

// TestCLIDriftLoop exercises the drift feedback loop end to end: runs append
// trajectory records (with and without a drift report), `metaprep drift`
// renders them, and the calibration knob validates.
func TestCLIDriftLoop(t *testing.T) {
	dir := t.TempDir()
	files := writeDataset(t, filepath.Join(dir, "data"))
	idxPath := filepath.Join(dir, "ds.idx")
	args := append([]string{"-k", "27", "-paired", "-chunk", "131072", "-out", idxPath}, files...)
	if err := cmdIndex(args); err != nil {
		t.Fatalf("index: %v", err)
	}

	trajPath := filepath.Join(dir, "trajectory.jsonl")
	if err := cmdRun([]string{
		"-index", idxPath, "-tasks", "2", "-threads", "2", "-trajectory", trajPath,
	}); err != nil {
		t.Fatalf("run with trajectory: %v", err)
	}
	if err := cmdRun([]string{
		"-index", idxPath, "-drift-cal", "off", "-trajectory", trajPath,
	}); err != nil {
		t.Fatalf("run with drift off: %v", err)
	}
	recs, err := traj.Load(trajPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Drift == nil || recs[1].Drift != nil {
		t.Fatalf("trajectory records = %d (drift %v, %v), want drifted then undrifted",
			len(recs), recs[0].Drift != nil, recs[1].Drift != nil)
	}
	if !finiteDrift(*recs[0].Drift) {
		t.Fatalf("recorded drift not finite: %s", recs[0].Drift)
	}

	if err := cmdDrift([]string{"-trajectory", trajPath}); err != nil {
		t.Fatalf("drift: %v", err)
	}
	if err := cmdDrift([]string{"-trajectory", trajPath, "-last", "1", "-warn", "1.5"}); err != nil {
		t.Fatalf("drift -last: %v", err)
	}
	if err := cmdDrift([]string{"-trajectory", filepath.Join(dir, "nope.jsonl")}); err == nil {
		t.Error("drift on a missing trajectory succeeded")
	}
	if err := cmdRun([]string{"-index", idxPath, "-drift-cal", "cray"}); !errors.Is(err, metaprep.ErrInvalidConfig) {
		t.Errorf("run -drift-cal cray: err = %v, want ErrInvalidConfig", err)
	}
}

// TestCheckTraceRecvScatter pins checktrace's receive check: a task's
// recv-scatter spans may sum to at most its KmerGen-Comm steps, on each
// task separately.
func TestCheckTraceRecvScatter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	check := func(recv0, recv1 float64) error {
		trace := fmt.Sprintf(`{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"task 0"}},
{"name":"KmerGen-Comm","cat":"step","ph":"X","pid":0,"tid":0,"ts":0,"dur":10},
{"name":"KmerGen-Comm","cat":"step","ph":"X","pid":1,"tid":0,"ts":0,"dur":10},
{"name":"recv-scatter","cat":"detail","ph":"X","pid":0,"tid":1,"ts":1,"dur":%g,"args":{"src":1,"tuples":5}},
{"name":"recv-scatter","cat":"detail","ph":"X","pid":1,"tid":1,"ts":1,"dur":%g,"args":{"src":0,"tuples":5}},
{"name":"KmerGen-Comm","cat":"step","ph":"X","pid":0,"tid":0,"ts":20,"dur":10},
{"name":"recv-scatter","cat":"detail","ph":"X","pid":0,"tid":1,"ts":21,"dur":%g,"args":{"src":0,"tuples":5}}]}`,
			recv0, recv1, recv0)
		if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
		return cmdCheckTrace([]string{"-trace", path})
	}
	if err := check(8, 10); err != nil {
		t.Errorf("recv-scatter within KmerGen-Comm: %v", err)
	}
	if err := check(8, 11); err == nil || !strings.Contains(err.Error(), "task 1: recv-scatter") {
		t.Errorf("task 1's recv-scatter over its KmerGen-Comm: err = %v", err)
	}
	if err := check(11, 1); err == nil || !strings.Contains(err.Error(), "task 0: recv-scatter") {
		t.Errorf("task 0's recv-scatter over its KmerGen-Comm: err = %v", err)
	}
}

// TestCheckTraceBucketSort pins checktrace's bucket check: on each task,
// each thread's bucket-sort spans may sum to at most the task's LocalSort
// steps, which charge the slowest thread's bucket loads.
func TestCheckTraceBucketSort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	check := func(t0, t1 float64) error {
		trace := fmt.Sprintf(`{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"task 0"}},
{"name":"LocalSort","cat":"step","ph":"X","pid":0,"tid":0,"ts":0,"dur":2},
{"name":"bucket-sort","cat":"detail","ph":"X","pid":0,"tid":0,"ts":2,"dur":%g,"args":{"thread":0,"bucket":0,"tuples":5}},
{"name":"bucket-sort","cat":"detail","ph":"X","pid":0,"tid":0,"ts":2,"dur":%g,"args":{"thread":1,"bucket":3,"tuples":5}},
{"name":"LocalSort","cat":"step","ph":"X","pid":0,"tid":0,"ts":20,"dur":8},
{"name":"bucket-sort","cat":"detail","ph":"X","pid":0,"tid":0,"ts":21,"dur":%g,"args":{"thread":0,"bucket":1,"tuples":5}}]}`,
			t0, t1, t0)
		if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
			t.Fatal(err)
		}
		return cmdCheckTrace([]string{"-trace", path})
	}
	if err := check(5, 10); err != nil {
		t.Errorf("each thread's bucket-sort within LocalSort: %v", err)
	}
	if err := check(4, 11); err == nil || !strings.Contains(err.Error(), "task 0: thread 1's bucket-sort") {
		t.Errorf("thread 1's bucket-sort over LocalSort: err = %v", err)
	}
	if err := check(6, 1); err == nil || !strings.Contains(err.Error(), "task 0: thread 0's bucket-sort") {
		t.Errorf("thread 0's bucket-sort over LocalSort: err = %v", err)
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
