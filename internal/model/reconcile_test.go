package model

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestReconcileFiniteOnZeroMeasurement is the degenerate case the
// ε-smoothing exists for: an all-zero measurement against a real
// prediction must still yield positive finite ratios everywhere.
func TestReconcileFiniteOnZeroMeasurement(t *testing.T) {
	w := PaperWorkload("HG")
	c := Cluster{P: 4, T: 4, S: 2}
	r := Reconcile(Edison(), w, c, Measured{})
	if !finiteDrift(r) {
		t.Fatalf("zero measurement produced non-finite ratios: %+v", r)
	}
	for _, s := range r.Steps {
		if s.Ratio <= 0 || s.Ratio > 1 {
			t.Fatalf("%s: zero measurement should give ratio in (0,1], got %v", s.Step, s.Ratio)
		}
	}
}

// TestReconcilePerfectMeasurement feeds the prediction back as the
// measurement: every ratio must be exactly 1.
func TestReconcilePerfectMeasurement(t *testing.T) {
	w := PaperWorkload("MM")
	c := Cluster{P: 8, T: 8, S: 4, SparseDeltaMerge: true}
	w.NonSingletonFrac = 0.5
	pred := Predict(Edison(), w, c)
	m := Measured{
		Steps:     pred,
		WireBytes: ExchangeWireBytes(w, c) + MergeWireBytes(w, c),
	}
	r := Reconcile(Edison(), w, c, m)
	for _, s := range r.Steps {
		if math.Abs(s.Ratio-1) > 1e-12 {
			t.Fatalf("%s: self-comparison ratio = %v", s.Step, s.Ratio)
		}
	}
	if math.Abs(r.TotalRatio-1) > 1e-12 || math.Abs(r.WireRatio-1) > 1e-12 {
		t.Fatalf("total %v wire %v, want 1", r.TotalRatio, r.WireRatio)
	}
	if r.SpillPredicted != 0 || r.SpillMeasured != 0 {
		t.Fatalf("in-RAM run predicted spill: %d/%d", r.SpillPredicted, r.SpillMeasured)
	}
}

// TestReconcileStepOrderAndWorst pins the step ordering to StepTimes order
// and checks Worst picks the largest log-space deviation.
func TestReconcileStepOrderAndWorst(t *testing.T) {
	w := PaperWorkload("HG")
	c := Cluster{P: 4, T: 4, S: 2}
	pred := Predict(Edison(), w, c)
	m := Measured{Steps: pred}
	m.Steps.LocalSort *= 10 // one step drifts hard
	r := Reconcile(Edison(), w, c, m)
	wantOrder := []string{"KmerGen-I/O", "KmerGen", "KmerGen-Comm", "LocalSort",
		"LocalCC", "Merge-Comm", "MergeCC", "CC-I/O"}
	if len(r.Steps) != len(wantOrder) {
		t.Fatalf("%d steps", len(r.Steps))
	}
	for i, s := range r.Steps {
		if s.Step != wantOrder[i] {
			t.Fatalf("step[%d] = %s, want %s", i, s.Step, wantOrder[i])
		}
	}
	if w := r.Worst(); w.Step != "LocalSort" || w.Ratio < 5 {
		t.Fatalf("Worst = %+v, want LocalSort at ~10x", w)
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestSpillBytesPrediction checks the out-of-core volume prediction: zero
// without a budget or within budget, the full raw tuple volume beyond it.
func TestSpillBytesPrediction(t *testing.T) {
	w := Workload{Tuples: 1 << 20, TupleBytes: 12}
	if got := SpillBytes(w, Cluster{P: 1, T: 1, S: 1}); got != 0 {
		t.Fatalf("no budget: %d", got)
	}
	roomy := Cluster{P: 1, T: 1, S: 1, SpillBudgetBytes: 1 << 30}
	if got := SpillBytes(w, roomy); got != 0 {
		t.Fatalf("within budget: %d", got)
	}
	tight := Cluster{P: 1, T: 1, S: 1, SpillBudgetBytes: 1 << 20}
	raw := int64(w.Tuples) * int64(w.TupleBytes)
	if got := SpillBytes(w, tight); got != raw {
		t.Fatalf("over budget: %d, want %d", got, raw)
	}
}

// TestExchangeWireBytes checks the (P-1)/P cross-traffic fraction.
func TestExchangeWireBytes(t *testing.T) {
	w := Workload{Tuples: 1000, TupleBytes: 12}
	if got := ExchangeWireBytes(w, Cluster{P: 1}); got != 0 {
		t.Fatalf("P=1: %d", got)
	}
	if got := ExchangeWireBytes(w, Cluster{P: 4}); got != 9000 {
		t.Fatalf("P=4: %d, want 9000", got)
	}
}

// TestDriftReportJSONRoundTrip ensures the report survives the JSONL
// trajectory file and the job-result API unchanged.
func TestDriftReportJSONRoundTrip(t *testing.T) {
	w := PaperWorkload("HG")
	c := Cluster{P: 2, T: 2, S: 1}
	r := Reconcile(Ganga(), w, c, Measured{Steps: Predict(Ganga(), w, c)})
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back DriftReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Calibration != "ganga" || len(back.Steps) != 8 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.TotalPredicted != r.TotalPredicted || back.Steps[3].Ratio != r.Steps[3].Ratio {
		t.Fatal("round trip changed values")
	}
	_ = time.Duration(back.TotalMeasured)
}

// finiteDrift reports whether every ratio of d is a positive finite number,
// the invariant the drift report's ε-smoothing guarantees.
func finiteDrift(d DriftReport) bool {
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
