package main

import (
	"fmt"

	"metaprep"
	"metaprep/internal/stats"
)

// extsortRow is one BENCH_extsort.json measurement: an out-of-core variant
// against the in-RAM reference on the same dataset and topology.
type extsortRow struct {
	Variant        string  `json:"variant"`
	BudgetBytes    int64   `json:"budget_bytes"`
	LocalSortMS    float64 `json:"local_sort_ms"`
	LocalCCMS      float64 `json:"local_cc_ms"`
	TotalMS        float64 `json:"total_ms"`
	WallMS         float64 `json:"wall_ms"`
	Runs           uint64  `json:"runs"`
	SpilledBytes   uint64  `json:"spilled_bytes"`
	PeakTupleBytes uint64  `json:"peak_tuple_bytes"`
	// OverheadPct is this variant's step-total overhead vs the in-RAM
	// reference run (0 for the reference row itself).
	OverheadPct float64 `json:"overhead_pct"`
	// LabelsMatch records the bit-identical parity check against the
	// reference partitioning.
	LabelsMatch bool `json:"labels_match"`
}

// expExtsort runs the out-of-core LocalSort ablation: the same multi-task
// partition once fully in RAM and once per spill budget, asserting
// bit-identical labels while measuring what bounded memory costs. Budgets
// are fractions of one rank's partition tuple bytes, so "/8" holds an
// eighth of the working set resident. The peak column is the pipeline's own
// extsort/peak_tuple_bytes gauge — the acceptance check that spilling
// actually bounds tuple memory, not just that it finishes.
func expExtsort(e *env) error {
	idx, _, err := e.index("HG", 27)
	if err != nil {
		return err
	}
	const tasks, threads = 2, 2
	const tupleBytes = 12 // k = 27

	run := func(budget int64) (*metaprep.Result, *metaprep.Collector, error) {
		cfg := metaprep.DefaultConfig(idx)
		cfg.Tasks = tasks
		cfg.Threads = threads
		cfg.SpillBudgetBytes = budget
		obs := metaprep.NewCollector()
		cfg.Obs = obs
		res, err := metaprep.Partition(cfg)
		return res, obs, err
	}

	ref, _, err := run(0)
	if err != nil {
		return err
	}
	perRank := int64(ref.Tuples) / tasks * tupleBytes
	// A spilling round enumerates at least one whole chunk (one pass here),
	// so a chunk holding more than budget/8 of tuple bytes sets the size of
	// both generation slots: the bound is then 3/4 of the budget plus two
	// chunks.
	var chunkFloor int64
	for ci := range idx.Chunks {
		n := int64(idx.Chunks[ci].Hist.RangeCount(0, idx.Opts.Bins()))
		chunkFloor = max(chunkFloor, n*tupleBytes)
	}

	type variant struct {
		name   string
		budget int64
	}
	variants := []variant{{"in-RAM", 0}}
	for _, div := range []int64{2, 4, 8} {
		b := perRank / div
		if b < metaprep.MinSpillBudgetBytes {
			b = metaprep.MinSpillBudgetBytes
		}
		variants = append(variants, variant{fmt.Sprintf("spill/%d", div), b})
	}

	t := stats.NewTable("Variant", "Budget(MB)", "LocalSort", "LocalCC", "Total",
		"Runs", "Spilled(MB)", "PeakTuple(MB)", "Overhead")
	var rows []extsortRow
	refTotal := ref.Steps.Total()
	for _, v := range variants {
		res, obs := ref, (*metaprep.Collector)(nil)
		if v.budget > 0 {
			if res, obs, err = run(v.budget); err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
		}
		row := extsortRow{
			Variant:     v.name,
			BudgetBytes: v.budget,
			LocalSortMS: float64(res.Steps.LocalSort.Microseconds()) / 1e3,
			LocalCCMS:   float64(res.Steps.LocalCC.Microseconds()) / 1e3,
			TotalMS:     float64(res.Steps.Total().Microseconds()) / 1e3,
			WallMS:      float64(res.Wall.Microseconds()) / 1e3,
			LabelsMatch: true,
		}
		if obs != nil {
			for _, cv := range obs.Counters() {
				switch cv.Name {
				case "extsort/bytes_spilled":
					row.SpilledBytes += cv.Value
				case "extsort/runs":
					row.Runs += cv.Value
				case "extsort/peak_tuple_bytes":
					if cv.Value > row.PeakTupleBytes {
						row.PeakTupleBytes = cv.Value
					}
				}
			}
			row.OverheadPct = 100 * (float64(res.Steps.Total()) - float64(refTotal)) / float64(refTotal)
			if len(res.Labels) != len(ref.Labels) {
				row.LabelsMatch = false
			} else {
				for i := range res.Labels {
					if res.Labels[i] != ref.Labels[i] {
						row.LabelsMatch = false
						break
					}
				}
			}
			if !row.LabelsMatch {
				return fmt.Errorf("%s: labels diverge from the in-RAM reference", v.name)
			}
			if bound := max(v.budget, v.budget-v.budget/4+2*chunkFloor); int64(row.PeakTupleBytes) > bound {
				return fmt.Errorf("%s: peak tuple bytes %d exceed the %d budget (%d with the chunk floor)",
					v.name, row.PeakTupleBytes, v.budget, bound)
			}
		}
		t.AddRow(v.name, float64(v.budget)/float64(1<<20),
			res.Steps.LocalSort, res.Steps.LocalCC, res.Steps.Total(),
			row.Runs, float64(row.SpilledBytes)/float64(1<<20),
			float64(row.PeakTupleBytes)/float64(1<<20),
			fmt.Sprintf("%+.1f%%", row.OverheadPct))
		rows = append(rows, row)
	}
	if err := e.emitBench("extsort", t, rows); err != nil {
		return err
	}

	// The model's view at paper scale: MM on 4 nodes with an eighth of the
	// per-rank working set resident.
	w := metaprep.PaperWorkload("MM")
	passBytes := w.Tuples / 4 * int64(w.TupleBytes)
	mt := stats.NewTable("Model (MM, P=4, T=24, S=1)", "LocalSort", "LocalCC", "Total", "Mem/task(GB)")
	for _, mv := range []struct {
		name   string
		budget int64
	}{{"in-RAM", 0}, {"spill/8", passBytes / 8}} {
		c := metaprep.ClusterSpec{P: 4, T: 24, S: 1, SparseDeltaMerge: true, OverlapOutput: true,
			SpillBudgetBytes: mv.budget}
		p := metaprep.Predict(metaprep.EdisonCalibration(), w, c)
		mt.AddRow(mv.name, p.LocalSort, p.LocalCC, p.Total(),
			float64(metaprep.PredictMemory(w, c))/float64(1<<30))
	}
	if err := e.emit("extsort-model", mt); err != nil {
		return err
	}
	fmt.Println("(extension: every spill variant is verified bit-identical to the in-RAM run and its peak resident tuple bytes stay under the budget)")
	return nil
}
