package main

import (
	"fmt"
	"time"

	"metaprep"
	"metaprep/internal/obsv"
	"metaprep/internal/stats"
)

// pipelineRow is one BENCH_pipeline.json row: a full pipeline run under the
// flight recorder, with its wall time, critical-path step total and the
// model-drift ratios the reconciler attached — the continuously-tracked
// numbers a dashboard plots over commits.
type pipelineRow struct {
	Config     string  `json:"config"`
	Tasks      int     `json:"tasks"`
	Threads    int     `json:"threads"`
	Passes     int     `json:"passes"`
	Reads      uint32  `json:"reads"`
	Tuples     uint64  `json:"tuples"`
	Components int     `json:"components"`
	WallNanos  int64   `json:"wall_nanos"`
	StepNanos  int64   `json:"step_total_nanos"`
	TotalRatio float64 `json:"drift_total_ratio"`
	WorstStep  string  `json:"drift_worst_step"`
	WorstRatio float64 `json:"drift_worst_ratio"`
	WireRatio  float64 `json:"drift_wire_ratio"`
	// RingDropped is how many spans the bounded flight recorder overwrote —
	// the cost of always-on tracing is this loss, not memory.
	RingDropped uint64 `json:"ring_dropped"`
}

// expPipeline is the observability benchmark: the standard HG dataset run
// under the always-on flight recorder across representative shapes, printing
// per-step times next to the §3.7 model's prediction ratios. With
// -benchjson it writes the rows to BENCH_pipeline.json; nothing in the tree
// or in CI reads that file, so a row is a record of one host, not a gate.
func expPipeline(e *env) error {
	idx, _, err := e.index("HG", 27)
	if err != nil {
		return err
	}
	shapes := []struct{ p, t, s int }{
		{1, 1, 1},
		{2, 2, 1},
		{4, 2, 2},
	}
	t := stats.NewTable("P", "T", "S", "Wall", "StepTotal",
		"Drift total", "Worst step", "Worst x", "Wire x", "Dropped")
	var rows []pipelineRow
	for _, sh := range shapes {
		cfg := metaprep.DefaultConfig(idx)
		cfg.Tasks = sh.p
		cfg.Threads = sh.t
		cfg.Passes = sh.s
		cfg.Network = metaprep.EdisonNetwork()
		obs := obsv.NewRing(0)
		cfg.Obs = obs
		res, err := metaprep.Partition(cfg)
		if err != nil {
			return err
		}
		if res.Drift == nil {
			return fmt.Errorf("pipeline: run P=%d produced no drift report", sh.p)
		}
		if !res.Drift.Finite() {
			return fmt.Errorf("pipeline: drift report not finite: %s", res.Drift)
		}
		d := res.Drift
		w := d.Worst()
		t.AddRow(sh.p, sh.t, sh.s,
			res.Wall.Round(time.Millisecond), res.Steps.Total().Round(time.Millisecond),
			fmt.Sprintf("%.2f", d.TotalRatio), w.Step, fmt.Sprintf("%.2f", w.Ratio),
			fmt.Sprintf("%.2f", d.WireRatio), obs.Dropped())
		rows = append(rows, pipelineRow{
			Config: fmt.Sprintf("P%dxT%dxS%d", sh.p, sh.t, sh.s),
			Tasks:  sh.p, Threads: sh.t, Passes: sh.s,
			Reads: res.Reads, Tuples: res.Tuples, Components: res.Components,
			WallNanos: res.Wall.Nanoseconds(), StepNanos: res.Steps.Total().Nanoseconds(),
			TotalRatio: d.TotalRatio, WorstStep: w.Step, WorstRatio: w.Ratio,
			WireRatio: d.WireRatio, RingDropped: obs.Dropped(),
		})
	}
	return e.emitBench("pipeline", t, rows)
}
