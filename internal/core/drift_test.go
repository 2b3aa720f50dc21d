package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"metaprep/internal/index"
	"metaprep/internal/model"
	"metaprep/internal/obsv"
)

// TestRunAttachesDriftReport checks the default drift reconciliation: a
// plain run yields a finite report with all eight steps, measured values
// matching the run's own accounting, and per-task ratios set.
func TestRunAttachesDriftReport(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	td := overlappingDataset(t, rng, smallOpts(), 4, 400, 160, 40)
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.Passes = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Drift
	if d == nil {
		t.Fatal("no drift report on default config")
	}
	if !finiteDrift(*d) {
		t.Fatalf("non-finite drift report: %+v", d)
	}
	if d.Calibration != "edison" {
		t.Fatalf("calibration = %q", d.Calibration)
	}
	if len(d.Steps) != 8 {
		t.Fatalf("%d drift steps", len(d.Steps))
	}
	if d.TotalMeasured != res.Steps.Total() {
		t.Fatalf("measured total %v != step total %v", d.TotalMeasured, res.Steps.Total())
	}
	var wire int64
	for _, rep := range res.PerTask {
		wire += rep.BytesSent
		if rep.DriftRatio <= 0 {
			t.Fatalf("task %d: drift ratio %v", rep.Rank, rep.DriftRatio)
		}
	}
	if d.WireMeasured != wire {
		t.Fatalf("wire measured %d, tasks sent %d", d.WireMeasured, wire)
	}
	if d.SpillMeasured != 0 || d.SpillPredicted != 0 {
		t.Fatalf("in-RAM run reports spill: %d/%d", d.SpillMeasured, d.SpillPredicted)
	}
	if !strings.Contains(d.String(), "drift(edison)") {
		t.Fatalf("summary = %q", d.String())
	}
}

// TestDriftOffAndInvalid checks the off switch and the validation error.
func TestDriftOffAndInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	td := overlappingDataset(t, rng, smallOpts(), 3, 200, 80, 30)
	cfg := Default(td.idx)
	cfg.DriftCal = "off"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drift != nil {
		t.Fatal("drift report despite DriftCal=off")
	}
	for _, rep := range res.PerTask {
		if rep.DriftRatio != 0 {
			t.Fatalf("per-task ratio set despite off: %v", rep.DriftRatio)
		}
	}
	cfg.DriftCal = "cray"
	if err := cfg.Validate(); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("bad calibration not rejected: %v", err)
	}
}

// TestDriftMeasuresSpill runs the out-of-core path and expects both sides
// of the spill comparison populated.
func TestDriftMeasuresSpill(t *testing.T) {
	td := spillDataset(t, 23, smallOpts())
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.SpillBudgetBytes = MinSpillBudgetBytes
	requireSpill(t, cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var spilled int64
	for _, rep := range res.PerTask {
		spilled += rep.SpillBytes
	}
	if spilled <= 0 {
		t.Fatal("spill run wrote nothing (budget did not trigger)")
	}
	if res.Drift == nil || res.Drift.SpillMeasured != spilled {
		t.Fatalf("drift spill measured %v, tasks wrote %d", res.Drift, spilled)
	}
	if res.Drift.SpillPredicted <= 0 {
		t.Fatalf("model predicted no spill for an over-budget run")
	}
	if !finiteDrift(*res.Drift) {
		t.Fatalf("non-finite spill drift: %+v", res.Drift)
	}
}

// TestStepHistogramsPopulated checks that every "step" span lands in the
// matching per-rank step/<name> histogram with identical counts and sums.
func TestStepHistogramsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	td := overlappingDataset(t, rng, smallOpts(), 4, 300, 120, 35)
	cfg := Default(td.idx)
	cfg.Tasks = 2
	cfg.Threads = 2
	cfg.Passes = 2
	cfg.OutDir = t.TempDir()
	cfg.Obs = obsv.New()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	type key struct {
		rank int
		name string
	}
	spanCount := make(map[key]uint64)
	spanSum := make(map[key]int64)
	for _, ev := range cfg.Obs.Events() {
		if ev.Cat == "step" {
			k := key{ev.Pid, "step/" + ev.Name}
			spanCount[k]++
			spanSum[k] += int64(ev.Dur)
		}
	}
	if len(spanCount) == 0 {
		t.Fatal("no step spans")
	}
	hists := make(map[key]obsv.HistogramSnapshot)
	for _, hv := range cfg.Obs.Histograms() {
		hists[key{hv.Rank, hv.Name}] = hv.Snap
	}
	for k, n := range spanCount {
		h, ok := hists[k]
		if !ok {
			t.Fatalf("%v: span recorded but no histogram", k)
		}
		if h.Count != n || h.SumNanos != spanSum[k] {
			t.Fatalf("%v: histogram count %d sum %d, spans %d sum %d",
				k, h.Count, h.SumNanos, n, spanSum[k])
		}
	}
	for k := range hists {
		if _, ok := spanCount[k]; !ok {
			t.Fatalf("%v: histogram without spans", k)
		}
	}
}

// TestModelMemoryMatchesPlan pins the §3.7 memory model to the inventory
// the pipeline actually plans: model.MemoryPerTask on the run's own
// workload and cluster shape lands within ±15 % of Result.MemoryPerTask,
// in RAM and out of core. Before the generation buffer was budgeted the
// model capped tuple memory at the budget while the plan held a whole
// pass's generated tuples, and a spilling run was under-charged several
// times over.
func TestModelMemoryMatchesPlan(t *testing.T) {
	td := spillDataset(t, 98, index.Options{K: 11, M: 4, ChunkSize: 600})
	for _, c := range []struct {
		name   string
		budget int64
	}{
		{"inram", 0},
		{"spill", MinSpillBudgetBytes},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Default(td.idx)
			cfg.Tasks = 2
			cfg.Threads = 2
			cfg.Passes = 2
			cfg.SpillBudgetBytes = c.budget
			if c.budget > 0 {
				requireSpill(t, cfg)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := model.MemoryPerTask(model.FromIndex(td.idx), cfg.modelCluster())
			ratio := float64(got) / float64(res.MemoryPerTask)
			t.Logf("model %d B, plan %d B, ratio %.3f", got, res.MemoryPerTask, ratio)
			if math.Abs(ratio-1) > 0.15 {
				t.Errorf("model.MemoryPerTask = %d B, plan charges %d B (ratio %.3f, want within ±15%%)",
					got, res.MemoryPerTask, ratio)
			}
		})
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
