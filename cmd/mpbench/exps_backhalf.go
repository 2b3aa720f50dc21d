package main

import (
	"fmt"

	"metaprep"
	"metaprep/internal/stats"
)

// expBackHalf measures the back half — pipelined delta tree merge, tree
// broadcast, overlapped zero-copy CC-I/O — of a multi-task run with
// partitioned output: where the time and wire bytes go, and how many records
// were blitted verbatim. A second table evaluates the §3.7 model at paper
// scale, where the alternatives the pipeline no longer carries survive as
// predictions: the dense star back-half against the delta tree.
func expBackHalf(e *env) error {
	idx, _, err := e.index("HG", 27)
	if err != nil {
		return err
	}
	t := stats.NewTable("Variant", "Merge-Comm", "MergeCC", "CC-I/O", "Total",
		"MergeKB", "Verbatim", "Reencoded")
	cfg := metaprep.DefaultConfig(idx)
	cfg.Tasks = 4
	cfg.Threads = 2
	cfg.Passes = 2
	cfg.Network = metaprep.EdisonNetwork()
	cfg.OutDir = e.runDir("backhalf")
	obs := metaprep.NewCollector()
	cfg.Obs = obs
	res, err := metaprep.Partition(cfg)
	if err != nil {
		return err
	}
	var mergeBytes int64
	for _, rep := range res.PerTask {
		mergeBytes += rep.MergeBytes
	}
	var verbatim, reenc uint64
	for _, cv := range obs.Counters() {
		switch cv.Name {
		case "ccio/verbatim_records":
			verbatim += cv.Value
		case "ccio/reencoded_records":
			reenc += cv.Value
		}
	}
	s := res.Steps
	t.AddRow("delta tree + overlap (P=4, T=2, S=2)", s.MergeComm, s.MergeCC, s.CCIO, s.Total(),
		float64(mergeBytes)/1024, verbatim, reenc)
	if err := e.emit("backhalf", t); err != nil {
		return err
	}

	// The model's view at paper scale: P=16 makes the dense star's
	// (P−1)·4R-byte serialized broadcast and rounds·4R merge visibly worse
	// than the delta tree's change-only payloads and log-depth relay.
	w := metaprep.PaperWorkload("HG")
	mt := stats.NewTable("Model (HG, P=16, T=24, S=2)",
		"Merge-Comm", "MergeCC", "CC-I/O", "Total", "MergeWireMB")
	cal := metaprep.EdisonCalibration()
	densestar := metaprep.ClusterSpec{P: 16, T: 24, S: 2, StarBroadcast: true}
	deltatree := metaprep.ClusterSpec{P: 16, T: 24, S: 2, SparseDeltaMerge: true, OverlapOutput: true}
	for _, row := range []struct {
		name string
		c    metaprep.ClusterSpec
	}{
		{"dense star", densestar},
		{"delta tree + overlap", deltatree},
	} {
		s := metaprep.Predict(cal, w, row.c)
		mt.AddRow(row.name, s.MergeComm, s.MergeCC, s.CCIO, s.Total(),
			float64(metaprep.PredictMergeWireBytes(w, row.c))/(1<<20))
	}
	if err := e.emit("backhalf-model", mt); err != nil {
		return err
	}
	fmt.Println("(extension: the delta tree cuts merge wire bytes and the overlapped zero-copy CC-I/O hides the output re-read behind the merge; the dense star is a model row only)")
	return nil
}
