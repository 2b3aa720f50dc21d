package model

import (
	"fmt"
	"math"
	"time"
)

// reconcile.go closes the loop between the §3.7 cost model and the live
// pipeline: after every run the measured per-step times and byte volumes
// are compared against what Predict would have said for the same workload
// and cluster. The resulting DriftReport is the continuous-validation
// signal — a ratio near 1.0 means the model still describes the machine;
// sustained drift on one step localizes what changed (I/O regressed, the
// exchange got slower, a calibration constant went stale).

// driftEpsilon is the smoothing added to both sides of every time ratio so
// ratios are guaranteed finite and near-zero steps (an empty merge on P=1)
// do not explode the comparison. One millisecond is far below any step the
// model resolves, so real steps are essentially unaffected.
const driftEpsilon = time.Millisecond

// driftByteEpsilon plays the same role for byte-volume ratios.
const driftByteEpsilon = 1 << 20

// Measured is the per-run observation fed to Reconcile, aggregated the
// same way the paper reports: step times are the element-wise maximum
// across tasks (core.Result.Steps), byte volumes are totals across tasks.
type Measured struct {
	// Steps is the measured per-step critical path.
	Steps Steps
	// WireBytes is the total bytes sent by all tasks (exchange + merge +
	// broadcast).
	WireBytes int64
	// SpillBytes is the total bytes the out-of-core LocalSort wrote to
	// scratch (0 when every pass stayed in RAM).
	SpillBytes int64
}

// StepDrift is one step's predicted-vs-measured comparison.
type StepDrift struct {
	// Step is the step name, aligned with core.StepTimes ("KmerGen-I/O" …).
	Step string `json:"step"`
	// Predicted and Measured are the model's and the run's durations.
	Predicted time.Duration `json:"predicted_ns"`
	Measured  time.Duration `json:"measured_ns"`
	// Ratio is (measured+ε)/(predicted+ε): >1 means slower than modeled.
	Ratio float64 `json:"ratio"`
}

// DriftReport is the full reconciliation of one run against the model.
type DriftReport struct {
	// Calibration names the constant set the prediction used.
	Calibration string `json:"calibration"`
	// Steps holds one entry per pipeline step, in StepTimes order.
	Steps []StepDrift `json:"steps"`
	// TotalPredicted/TotalMeasured/TotalRatio compare the summed critical
	// path.
	TotalPredicted time.Duration `json:"total_predicted_ns"`
	TotalMeasured  time.Duration `json:"total_measured_ns"`
	TotalRatio     float64       `json:"total_ratio"`
	// Wire* compare total bytes on the wire (exchange + merge + broadcast).
	WirePredicted int64   `json:"wire_predicted_bytes"`
	WireMeasured  int64   `json:"wire_measured_bytes"`
	WireRatio     float64 `json:"wire_ratio"`
	// Spill* compare out-of-core scratch traffic.
	SpillPredicted int64   `json:"spill_predicted_bytes"`
	SpillMeasured  int64   `json:"spill_measured_bytes"`
	SpillRatio     float64 `json:"spill_ratio"`
}

// Worst returns the step whose ratio is farthest from 1.0 in log space —
// the first place to look when the total drifts.
func (r DriftReport) Worst() StepDrift {
	var worst StepDrift
	var worstDev float64 = -1
	for _, s := range r.Steps {
		dev := math.Abs(math.Log(s.Ratio))
		if dev > worstDev {
			worstDev = dev
			worst = s
		}
	}
	return worst
}

// String renders the report as a compact one-line summary for logs.
func (r DriftReport) String() string {
	w := r.Worst()
	return fmt.Sprintf("drift(%s): total %.2fx (pred %v, meas %v), worst %s %.2fx, wire %.2fx, spill %.2fx",
		r.Calibration, r.TotalRatio,
		r.TotalPredicted.Round(time.Millisecond), r.TotalMeasured.Round(time.Millisecond),
		w.Step, w.Ratio, r.WireRatio, r.SpillRatio)
}

// timeRatio is the ε-smoothed measured/predicted ratio.
func timeRatio(m, p time.Duration) float64 {
	return float64(m+driftEpsilon) / float64(p+driftEpsilon)
}

// byteRatio is the ε-smoothed ratio for byte volumes.
func byteRatio(m, p int64) float64 {
	return float64(m+driftByteEpsilon) / float64(p+driftByteEpsilon)
}

// stepList flattens Steps into (name, duration) pairs in StepTimes order.
func stepList(s Steps) []StepDrift {
	return []StepDrift{
		{Step: "KmerGen-I/O", Predicted: s.KmerGenIO},
		{Step: "KmerGen", Predicted: s.KmerGen},
		{Step: "KmerGen-Comm", Predicted: s.KmerGenComm},
		{Step: "LocalSort", Predicted: s.LocalSort},
		{Step: "LocalCC", Predicted: s.LocalCC},
		{Step: "Merge-Comm", Predicted: s.MergeComm},
		{Step: "MergeCC", Predicted: s.MergeCC},
		{Step: "CC-I/O", Predicted: s.CCIO},
	}
}

// ExchangeWireBytes returns the model's total KmerGen exchange volume in
// bytes: every tuple not destined for its producing task crosses the wire
// once, regardless of pass count or chunking.
func ExchangeWireBytes(w Workload, c Cluster) int64 {
	if c.P <= 1 {
		return 0
	}
	P := float64(c.P)
	return int64(float64(w.Tuples) * float64(w.TupleBytes) * (P - 1) / P)
}

// SpillBytes returns the model's total out-of-core scratch write volume:
// when a pass's received tuple bytes exceed the budget, every tuple of the
// run is spilled once, raw; otherwise nothing touches scratch.
func SpillBytes(w Workload, c Cluster) int64 {
	if c.SpillBudgetBytes <= 0 {
		return 0
	}
	P := c.P
	if P < 1 {
		P = 1
	}
	S := c.S
	if S < 1 {
		S = 1
	}
	tuples := float64(w.Tuples)
	if c.spillBuckets(tuples/float64(P)/float64(S)*float64(w.TupleBytes)) == 0 {
		return 0
	}
	return int64(tuples * float64(w.TupleBytes))
}

// Reconcile predicts the run with the given calibration and compares it
// against the measurement. Every ratio in the returned report is finite.
func Reconcile(cal Calibration, w Workload, c Cluster, m Measured) DriftReport {
	pred := Predict(cal, w, c)
	r := DriftReport{
		Calibration:    cal.Name,
		Steps:          stepList(pred),
		TotalPredicted: pred.Total(),
		TotalMeasured:  m.Steps.Total(),
		WirePredicted:  ExchangeWireBytes(w, c) + MergeWireBytes(w, c),
		WireMeasured:   m.WireBytes,
		SpillPredicted: SpillBytes(w, c),
		SpillMeasured:  m.SpillBytes,
	}
	meas := stepList(m.Steps)
	for i := range r.Steps {
		r.Steps[i].Measured = meas[i].Predicted
		r.Steps[i].Ratio = timeRatio(r.Steps[i].Measured, r.Steps[i].Predicted)
	}
	r.TotalRatio = timeRatio(r.TotalMeasured, r.TotalPredicted)
	r.WireRatio = byteRatio(r.WireMeasured, r.WirePredicted)
	r.SpillRatio = byteRatio(r.SpillMeasured, r.SpillPredicted)
	return r
}
