package core

import (
	"fmt"
	"time"

	"metaprep/internal/model"
)

// drift.go feeds each finished run back into the §3.7 performance model:
// the run's actual workload (from the index and the measured component
// structure) and cluster shape (from the Config) go into model.Predict,
// and the prediction is reconciled against the measured step times and
// byte volumes. The resulting report rides Result.Drift into the CLI
// metrics output, the job result API, the /metrics drift gauges and the
// JSONL perf trajectory — continuous validation that the model still
// describes the machine (ROADMAP item 1's predicted-vs-measured gate).

// driftCalibration resolves Config.DriftCal. ok=false means reconciliation
// is disabled.
func driftCalibration(name string) (model.Calibration, bool, error) {
	switch name {
	case "", "edison":
		return model.Edison(), true, nil
	case "ganga":
		return model.Ganga(), true, nil
	case "off":
		return model.Calibration{}, false, nil
	default:
		return model.Calibration{}, false,
			fmt.Errorf("unknown calibration %q (edison, ganga, or off)", name)
	}
}

// modelCluster maps the run configuration onto the model's cluster shape.
// The back-half parameters are constants: the pipelined delta merge, the
// tree broadcast and the overlapped output are the only paths the pipeline
// has; the model keeps the alternatives as analytic predictions only.
func (c Config) modelCluster() model.Cluster {
	return model.Cluster{
		P:                c.Tasks,
		T:                c.Threads,
		S:                c.Passes,
		SparseDeltaMerge: true,
		OverlapOutput:    true,
		SpillBudgetBytes: c.SpillBudgetBytes,
	}
}

// toModelSteps converts measured StepTimes into the model's aligned Steps.
func toModelSteps(s StepTimes) model.Steps {
	return model.Steps{
		KmerGenIO:   s.KmerGenIO,
		KmerGen:     s.KmerGen,
		KmerGenComm: s.KmerGenComm,
		LocalSort:   s.LocalSort,
		LocalCC:     s.LocalCC,
		MergeComm:   s.MergeComm,
		MergeCC:     s.MergeCC,
		CCIO:        s.CCIO,
	}
}

// reconcileDrift attaches the model reconciliation to a finished run:
// Result.Drift gets the full per-step report, and each TaskReport gets its
// own total measured/predicted ratio (the load-imbalance view — one slow
// task drifts alone). nonSingletonFrac is the measured fraction of reads
// in components of size ≥ 2, the f the merge model depends on.
func reconcileDrift(cfg Config, res *Result, nonSingletonFrac float64) {
	cal, on, err := driftCalibration(cfg.DriftCal)
	if err != nil || !on {
		return
	}
	w := model.FromIndex(cfg.Index)
	w.NonSingletonFrac = nonSingletonFrac
	if res.Edges > 0 {
		w.Edges = int64(res.Edges)
	}
	c := cfg.modelCluster()
	var wire, spill int64
	for _, rep := range res.PerTask {
		wire += rep.BytesSent
		spill += rep.SpillBytes
	}
	r := model.Reconcile(cal, w, c, model.Measured{
		Steps:      toModelSteps(res.Steps),
		WireBytes:  wire,
		SpillBytes: spill,
	})
	res.Drift = &r
	// Per-task ratio against the same (per-task uniform) prediction, with
	// the same ε-smoothing so it is always finite.
	const eps = time.Millisecond
	pred := r.TotalPredicted
	for i := range res.PerTask {
		res.PerTask[i].DriftRatio =
			float64(res.PerTask[i].Steps.Total()+eps) / float64(pred+eps)
	}
}
