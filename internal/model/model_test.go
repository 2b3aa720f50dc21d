package model

import (
	"testing"
	"time"
)

func TestPaperWorkloads(t *testing.T) {
	for _, name := range []string{"HG", "LL", "MM", "IS"} {
		w := PaperWorkload(name)
		if w.Bases == 0 || w.Reads == 0 || w.Tuples == 0 {
			t.Errorf("%s: empty workload %+v", name, w)
		}
		if w.Tuples > w.Bases {
			t.Errorf("%s: tuples %d exceed bases %d", name, w.Tuples, w.Bases)
		}
	}
	if w := PaperWorkload("nope"); w.Bases != 0 {
		t.Error("unknown workload nonempty")
	}
}

func TestPredictISMatchesPaperHeadline(t *testing.T) {
	// The paper's headline: IS (223 Gbp) on 16 Edison nodes with 8 passes
	// runs in ~14 minutes; Fig. 7 shows ~860 s. The Edison-fitted model
	// must land in that neighborhood (generously ±50%).
	s := Predict(Edison(), PaperWorkload("IS"), Cluster{P: 16, T: 24, S: 8})
	total := s.Total()
	if total < 430*time.Second || total > 1300*time.Second {
		t.Errorf("IS@16 nodes predicted %v, paper ~860 s", total)
	}
	// And the 64-node, 2-pass run is ~3.25× faster (Fig. 7).
	s64 := Predict(Edison(), PaperWorkload("IS"), Cluster{P: 64, T: 24, S: 2})
	speedup := total.Seconds() / s64.Total().Seconds()
	if speedup < 2 || speedup > 5 {
		t.Errorf("16→64 node speedup = %.2f, paper 3.25", speedup)
	}
}

func TestPredictTable3Shape(t *testing.T) {
	// Varying passes on MM at 4 nodes must reproduce Table 3's directions:
	// KmerGen grows with S, KmerGen-Comm shrinks, LocalSort ~constant,
	// LocalCC shrinks, memory shrinks.
	w := PaperWorkload("MM")
	var prev Steps
	var prevMem int64
	for i, s := range []int{1, 2, 4, 8} {
		cur := Predict(Edison(), w, Cluster{P: 4, T: 24, S: s})
		mem := MemoryPerTask(w, Cluster{P: 4, T: 24, S: s})
		if i > 0 {
			if cur.KmerGen <= prev.KmerGen {
				t.Errorf("S=%d: KmerGen %v did not grow from %v", s, cur.KmerGen, prev.KmerGen)
			}
			if cur.KmerGenComm >= prev.KmerGenComm {
				t.Errorf("S=%d: KmerGen-Comm %v did not shrink from %v", s, cur.KmerGenComm, prev.KmerGenComm)
			}
			if cur.LocalCC >= prev.LocalCC {
				t.Errorf("S=%d: LocalCC %v did not shrink from %v", s, cur.LocalCC, prev.LocalCC)
			}
			if cur.LocalSort != prev.LocalSort {
				t.Errorf("S=%d: LocalSort changed: %v vs %v", s, cur.LocalSort, prev.LocalSort)
			}
			if mem >= prevMem {
				t.Errorf("S=%d: memory %d did not shrink from %d", s, mem, prevMem)
			}
		}
		prev, prevMem = cur, mem
	}
}

func TestPredictTable3Absolute(t *testing.T) {
	// The fitted constants should land near Table 3's measured values for
	// MM on 4 nodes (tolerances 40% — the point is magnitude, not digits).
	w := PaperWorkload("MM")
	s1 := Predict(Edison(), w, Cluster{P: 4, T: 24, S: 1})
	approx := func(name string, got time.Duration, want float64) {
		g := got.Seconds()
		if g < want*0.6 || g > want*1.4 {
			t.Errorf("%s = %.2fs, Table 3 reports %.2fs", name, g, want)
		}
	}
	approx("KmerGen(S=1)", s1.KmerGen, 10.95)
	approx("KmerGenComm(S=1)", s1.KmerGenComm, 20.91)
	approx("LocalSort(S=1)", s1.LocalSort, 12.48)
	approx("LocalCC(S=1)", s1.LocalCC, 6.51)
	s8 := Predict(Edison(), w, Cluster{P: 4, T: 24, S: 8})
	approx("KmerGenComm(S=8)", s8.KmerGenComm, 8.56)
	approx("LocalCC(S=8)", s8.LocalCC, 2.52)
}

func TestPredictThreadScaling(t *testing.T) {
	// Single node: more threads must shrink compute steps and not change
	// communication.
	w := PaperWorkload("HG")
	t1 := Predict(Edison(), w, Cluster{P: 1, T: 1, S: 1})
	t24 := Predict(Edison(), w, Cluster{P: 1, T: 24, S: 1})
	if t24.KmerGen >= t1.KmerGen || t24.LocalSort >= t1.LocalSort {
		t.Error("threads did not speed up compute steps")
	}
	if t1.KmerGenComm != 0 || t24.KmerGenComm != 0 {
		t.Error("single node has no exchange")
	}
	sp := t1.Total().Seconds() / t24.Total().Seconds()
	if sp < 5 || sp > 24 {
		t.Errorf("24-thread speedup = %.1f, want sublinear but substantial (Fig. 5: 14.5×)", sp)
	}
}

func TestPredictGangaSlower(t *testing.T) {
	// Fig. 5: an Edison node is ~5× faster than a Ganga node on HG, and
	// Ganga's relative thread scaling is worse (shared-FS writes).
	w := PaperWorkload("HG")
	e := Predict(Edison(), w, Cluster{P: 1, T: 24, S: 1})
	g := Predict(Ganga(), w, Cluster{P: 1, T: 24, S: 1})
	ratio := g.Total().Seconds() / e.Total().Seconds()
	if ratio < 2.5 {
		t.Errorf("Ganga only %.1f× slower than Edison", ratio)
	}
	eSp := Predict(Edison(), w, Cluster{P: 1, T: 1, S: 1}).Total().Seconds() / e.Total().Seconds()
	gSp := Predict(Ganga(), w, Cluster{P: 1, T: 1, S: 1}).Total().Seconds() / g.Total().Seconds()
	if gSp >= eSp {
		t.Errorf("Ganga relative speedup %.1f not worse than Edison %.1f", gSp, eSp)
	}
}

func TestPredictMultiNodeSpeedupShape(t *testing.T) {
	// Fig. 6: multi-node speedups are real but clearly sub-ideal because
	// of the exchange and merge steps.
	w := PaperWorkload("MM")
	base := Predict(Edison(), w, Cluster{P: 1, T: 24, S: 4}).Total().Seconds()
	prev := base
	for _, p := range []int{2, 4, 8, 16} {
		cur := Predict(Edison(), w, Cluster{P: p, T: 24, S: 4}).Total().Seconds()
		if cur >= prev {
			t.Errorf("P=%d did not improve on %d nodes", p, p/2)
		}
		prev = cur
	}
	sp16 := base / prev
	if sp16 < 2 || sp16 >= 16 {
		t.Errorf("16-node speedup = %.1f, want sub-ideal (paper: 7.5× for MM)", sp16)
	}
}

func TestMemoryPerTaskIS(t *testing.T) {
	// §3.7's worked example: IS with 8 passes, 16 tasks, 24 threads ≈
	// 49 GB per task (6 GB index + 7 GB chunks + 2×14 GB tuples + 8 GB p).
	w := PaperWorkload("IS")
	mem := MemoryPerTask(w, Cluster{P: 16, T: 24, S: 8})
	gb := float64(mem) / float64(1<<30)
	if gb < 35 || gb > 65 {
		t.Errorf("IS memory/task = %.1f GB, paper computes ≈49 GB", gb)
	}
}

func TestCalibrateProducesSaneRates(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration takes ~1s")
	}
	cal := Calibrate(t.TempDir())
	check := func(name string, v float64, lo, hi float64) {
		if v < lo || v > hi {
			t.Errorf("%s = %g, want within [%g, %g]", name, v, lo, hi)
		}
	}
	check("scan", cal.ScanBasesPerSec, 1e6, 1e10)
	check("emit", cal.EmitTuplesPerSec, 1e6, 1e10)
	check("sort", cal.SortTuplesPerSec, 1e5, 1e9)
	check("cc", cal.CCEdgesPerSec, 1e5, 1e9)
	check("absorb", cal.AbsorbOpsPerSec, 1e5, 1e9)
	check("readBW", cal.ReadBW, 1e7, 1e11)
	check("writeBW", cal.WriteBW, 1e7, 1e11)
	check("commBW", cal.CommBW, 1e7, 1e12)
	if cal.CCOptBoost < 1 {
		t.Errorf("CCOptBoost = %v", cal.CCOptBoost)
	}
}

func TestPredictMonotoneInWorkload(t *testing.T) {
	// A strictly larger workload must never predict a faster run.
	small := PaperWorkload("HG")
	big := PaperWorkload("MM")
	for _, c := range []Cluster{{P: 1, T: 1, S: 1}, {P: 4, T: 24, S: 2}, {P: 16, T: 24, S: 8}} {
		ts := Predict(Edison(), small, c).Total()
		tb := Predict(Edison(), big, c).Total()
		if tb <= ts {
			t.Errorf("cluster %+v: MM (%v) not slower than HG (%v)", c, tb, ts)
		}
	}
}

func TestPredictDegenerateDims(t *testing.T) {
	// Zero/negative dimensions clamp to 1 rather than dividing by zero.
	w := PaperWorkload("HG")
	s := Predict(Edison(), w, Cluster{P: 0, T: 0, S: 0})
	if s.Total() <= 0 {
		t.Errorf("degenerate cluster predicted %v", s.Total())
	}
}

func TestPredictBackHalfKnobs(t *testing.T) {
	// The back-half knobs must only move the back-half steps: delta merge
	// shrinks MergeComm and MergeCC, the star broadcast grows MergeComm, and
	// overlapped output shrinks CC-I/O — the front of the pipeline is
	// untouched by all three.
	w := PaperWorkload("MM")
	base := Predict(Edison(), w, Cluster{P: 16, T: 24, S: 2})

	assertFrontUnchanged := func(name string, got Steps) {
		t.Helper()
		if got.KmerGenIO != base.KmerGenIO || got.KmerGen != base.KmerGen ||
			got.KmerGenComm != base.KmerGenComm || got.LocalSort != base.LocalSort ||
			got.LocalCC != base.LocalCC {
			t.Errorf("%s changed a front-half step: %+v vs %+v", name, got, base)
		}
	}

	delta := Predict(Edison(), w, Cluster{P: 16, T: 24, S: 2, SparseDeltaMerge: true})
	assertFrontUnchanged("delta", delta)
	if delta.MergeComm >= base.MergeComm {
		t.Errorf("delta MergeComm %v did not improve on dense %v", delta.MergeComm, base.MergeComm)
	}
	if delta.MergeCC >= base.MergeCC {
		t.Errorf("delta MergeCC %v did not improve on dense %v", delta.MergeCC, base.MergeCC)
	}

	star := Predict(Edison(), w, Cluster{P: 16, T: 24, S: 2, StarBroadcast: true})
	assertFrontUnchanged("star", star)
	if star.MergeComm <= base.MergeComm {
		t.Errorf("star MergeComm %v not worse than tree %v", star.MergeComm, base.MergeComm)
	}
	if star.MergeCC != base.MergeCC || star.CCIO != base.CCIO {
		t.Errorf("star broadcast moved a non-broadcast step")
	}

	overlap := Predict(Edison(), w, Cluster{P: 16, T: 24, S: 2, OverlapOutput: true})
	assertFrontUnchanged("overlap", overlap)
	if overlap.CCIO >= base.CCIO {
		t.Errorf("overlapped CC-I/O %v did not improve on %v", overlap.CCIO, base.CCIO)
	}
	if hidden := base.CCIO - overlap.CCIO; hidden > base.MergeComm+base.MergeCC+time.Millisecond {
		t.Errorf("overlap hid %v, more than the merge phase offers (%v)",
			hidden, base.MergeComm+base.MergeCC)
	}

	// On a single node there is no merge phase to hide behind and no merge
	// or broadcast to restructure: every knob is a no-op at P=1.
	for _, c := range []Cluster{
		{P: 1, T: 24, S: 2, SparseDeltaMerge: true},
		{P: 1, T: 24, S: 2, StarBroadcast: true},
		{P: 1, T: 24, S: 2, OverlapOutput: true},
	} {
		if got := Predict(Edison(), w, c); got != Predict(Edison(), w, Cluster{P: 1, T: 24, S: 2}) {
			t.Errorf("P=1 cluster %+v changed the prediction", c)
		}
	}
}

func TestPredictNonSingletonFrac(t *testing.T) {
	// A sparser read graph (smaller f) must shrink the delta merge terms;
	// f=0 (unknown) must behave exactly like the conservative f=1.
	w := PaperWorkload("MM")
	c := Cluster{P: 16, T: 24, S: 2, SparseDeltaMerge: true}
	full := Predict(Edison(), w, c)
	wUnknown := w
	wUnknown.NonSingletonFrac = 0
	if got := Predict(Edison(), wUnknown, c); got != full {
		t.Errorf("f=0 differs from f=1: %+v vs %+v", got, full)
	}
	wSparse := w
	wSparse.NonSingletonFrac = 0.1
	sparse := Predict(Edison(), wSparse, c)
	if sparse.MergeComm >= full.MergeComm || sparse.MergeCC >= full.MergeCC {
		t.Errorf("f=0.1 merge (%v, %v) not below f=1 (%v, %v)",
			sparse.MergeComm, sparse.MergeCC, full.MergeComm, full.MergeCC)
	}
	// The dense path ignores f entirely.
	cd := Cluster{P: 16, T: 24, S: 2}
	if Predict(Edison(), wSparse, cd) != Predict(Edison(), w, cd) {
		t.Errorf("NonSingletonFrac leaked into the dense merge")
	}
}

func TestMergeWireBytes(t *testing.T) {
	w := PaperWorkload("HG")
	R := float64(w.Reads)
	// Dense at P=16: 15 merge sends + 15 broadcast edges of 4R bytes each.
	dense := MergeWireBytes(w, Cluster{P: 16})
	if want := int64(30 * 4 * R); dense != want {
		t.Errorf("dense wire bytes = %d, want %d", dense, want)
	}
	// The delta tree must ship strictly fewer bytes than the dense star at
	// P=16 — the acceptance criterion's modeled comparison — at every f.
	for _, f := range []float64{0, 0.3, 1} {
		wf := w
		wf.NonSingletonFrac = f
		delta := MergeWireBytes(wf, Cluster{P: 16, SparseDeltaMerge: true})
		if delta >= dense {
			t.Errorf("f=%.1f: delta-tree wire bytes %d not below dense %d", f, delta, dense)
		}
	}
	// Broadcast volume is schedule-independent; star changes serialization,
	// not bytes.
	if MergeWireBytes(w, Cluster{P: 16, StarBroadcast: true}) != dense {
		t.Errorf("star broadcast changed total wire bytes")
	}
	if MergeWireBytes(w, Cluster{P: 1}) != 0 {
		t.Errorf("P=1 has wire bytes")
	}
}

// TestPredictSpillKnobs pins the out-of-core model's shape: under-budget
// runs are untouched, spilling adds the bucket write to KmerGen-Comm and
// the read-back to LocalSort whatever the budget (there is no merge term,
// so LocalCC stays the in-RAM figure), and the memory inventory is capped
// at the budget.
func TestPredictSpillKnobs(t *testing.T) {
	cal := Edison()
	w := PaperWorkload("MM")
	base := Cluster{P: 4, T: 24, S: 1, SparseDeltaMerge: true, OverlapOutput: true}

	inRAM := Predict(cal, w, base)
	passBytes := w.Tuples / int64(base.P) * int64(w.TupleBytes)

	// A budget the pass fits inside changes nothing.
	big := base
	big.SpillBudgetBytes = 2 * passBytes
	if got := Predict(cal, w, big); got != inRAM {
		t.Errorf("under-budget spill config changed the prediction:\n%+v\n%+v", got, inRAM)
	}

	// Halving the budget can only slow the run down, monotonically.
	prev := inRAM.Total()
	for _, div := range []int64{4, 8, 16, 64} {
		c := base
		c.SpillBudgetBytes = passBytes / div
		s := Predict(cal, w, c)
		if s.Total() < prev {
			t.Errorf("budget 1/%d: total %v faster than larger budget %v", div, s.Total(), prev)
		}
		if s.KmerGenComm <= inRAM.KmerGenComm || s.LocalSort <= inRAM.LocalSort {
			t.Errorf("budget 1/%d: KmerGen-Comm %v, LocalSort %v not above the in-RAM %v, %v (bucket write, read-back)",
				div, s.KmerGenComm, s.LocalSort, inRAM.KmerGenComm, inRAM.LocalSort)
		}
		if s.LocalCC != inRAM.LocalCC {
			t.Errorf("budget 1/%d: LocalCC %v, want the in-RAM %v (no merge)", div, s.LocalCC, inRAM.LocalCC)
		}
		prev = s.Total()
	}

	spill := base
	spill.SpillBudgetBytes = passBytes / 8

	// The memory model honors the cap: resident tuple bytes stop growing at
	// the budget while the in-RAM inventory keeps the full working set — a
	// receive buffer for the whole pass plus the generation slots.
	memRAM := MemoryPerTask(w, base)
	memSpill := MemoryPerTask(w, spill)
	recvBytes := int64(w.TupleBytes) * (w.Tuples / int64(base.P))
	if ram := tupleBytes(w, base); ram <= recvBytes {
		t.Errorf("in-RAM tuple bytes %d do not exceed one receive buffer of %d", ram, recvBytes)
	}
	wantDrop := tupleBytes(w, base) - spill.SpillBudgetBytes
	if memRAM-memSpill != wantDrop {
		t.Errorf("MemoryPerTask spill cap: got %d, want %d less than %d", memSpill, wantDrop, memRAM)
	}
}
