package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"metaprep/internal/index"
	"metaprep/internal/model"
)

// groupDataset indexes at m = 6, so a task of one or two receives more than
// 1 024 bins and its receive groups hold several bins each.
func groupDataset(t *testing.T, seed int64, k int) *testData {
	rng := rand.New(rand.NewSource(seed))
	return overlappingDataset(t, rng, index.Options{K: k, M: 6, ChunkSize: 4096}, 4, 3000, 1500, 100)
}

// openGroupSink plans a one-task, two-thread run over idx and opens its
// receive sink for pass 0.
func openGroupSink(t *testing.T, idx *index.Index) *binSink {
	t.Helper()
	cfg := Default(idx)
	cfg.Tasks, cfg.Threads = 1, 2
	pl, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs := newBinSink(&taskState{p: pl, rank: 0})
	if bs.g == 0 {
		t.Fatalf("%d bins give one-bin groups: the test needs g > 0", bs.nb)
	}
	if err := bs.open(0); err != nil {
		t.Fatal(err)
	}
	return bs
}

// binMessage is one message holding exactly the tuples the index puts in
// each of the sink's bins (keys whose low bits are random), shuffled; it
// also returns the bins of its keys.
func binMessage(bs *binSink, rng *rand.Rand) (tupleMsg, []int) {
	var m tupleMsg
	var bins []int
	for b := bs.binLo; b < bs.binLo+bs.nb; b++ {
		for range bs.st.p.idx.MerHist[b] {
			m.lo = append(m.lo, uint64(b)<<bs.shift|rng.Uint64()&(1<<bs.shift-1))
			m.val = append(m.val, uint32(len(m.val)))
			bins = append(bins, b)
		}
	}
	rng.Shuffle(len(m.lo), func(i, j int) {
		m.lo[i], m.lo[j] = m.lo[j], m.lo[i]
		m.val[i], m.val[j] = m.val[j], m.val[i]
		bins[i], bins[j] = bins[j], bins[i]
	})
	return m, bins
}

// moveTuple rewrites one tuple of message m from a bin a to bin a+1, for
// the first a that holds a tuple and for which cross says whether a and
// a+1 lie in different groups. It returns a.
func moveTuple(t *testing.T, bs *binSink, m tupleMsg, bins []int, cross bool) int {
	t.Helper()
	for i, a := range bins {
		if a+1 < bs.binLo+bs.nb && (a>>bs.g != (a+1)>>bs.g) == cross {
			m.lo[i] = m.lo[i]&(1<<bs.shift-1) | uint64(a+1)<<bs.shift
			return a
		}
	}
	t.Fatal("no tuple to move")
	return 0
}

// TestBinSinkStaleCounts feeds the receive sink one message that departs
// from the index by a single tuple moved to the next bin. Across a group
// boundary the group's slot overflows: receive reports the stale index
// before it writes anything, leaving the buffer and every cursor as open
// left them. Inside a group every slot still fills exactly, so receive
// accepts it, and seal's bin check reports the bin that holds one tuple
// too many. The unmodified message seals into bin order.
func TestBinSinkStaleCounts(t *testing.T) {
	td := groupDataset(t, 3, 27)
	rng := rand.New(rand.NewSource(5))

	t.Run("exact", func(t *testing.T) {
		bs := openGroupSink(t, td.idx)
		m, _ := binMessage(bs, rng)
		if err := bs.receive(0, m); err != nil {
			t.Fatal(err)
		}
		srcs, err := bs.seal(0)
		if err != nil {
			t.Fatal(err)
		}
		var keys []uint64
		for _, g := range srcs {
			keys = append(keys, bs.buf.lo[g.pos:g.end]...)
		}
		if len(keys) != len(m.lo) || !slices.IsSorted(keys) {
			t.Fatalf("sealed sources hold %d keys (sorted %v), want the message's %d in order",
				len(keys), slices.IsSorted(keys), len(m.lo))
		}
	})

	t.Run("cross-group", func(t *testing.T) {
		bs := openGroupSink(t, td.idx)
		m, bins := binMessage(bs, rng)
		a := moveTuple(t, bs, m, bins, true)
		err := bs.receive(0, m)
		if !errors.Is(err, errStaleIndex) || !strings.Contains(err.Error(), fmt.Sprintf("bin group %d–", a+1)) {
			t.Fatalf("receive with a tuple moved from bin %d to the next group: err = %v, want the stale-index error naming the group of bin %d", a, err, a+1)
		}
		if i := slices.IndexFunc(bs.buf.lo, func(x uint64) bool { return x != 0 }); i >= 0 {
			t.Errorf("receive wrote tuple %d before reporting the overflow", i)
		}
		if n := bs.ng * bs.P; !slices.Equal(bs.cur[:n], bs.off[:n]) {
			t.Error("receive moved slot cursors before reporting the overflow")
		}
	})

	t.Run("in-group", func(t *testing.T) {
		bs := openGroupSink(t, td.idx)
		m, bins := binMessage(bs, rng)
		a := moveTuple(t, bs, m, bins, false)
		if err := bs.receive(0, m); err != nil {
			t.Fatalf("receive with a tuple moved inside its group: %v, want the slot check to pass", err)
		}
		_, err := bs.seal(0)
		want := fmt.Sprintf("bin %d does not hold", a)
		if !errors.Is(err, errStaleIndex) || !strings.Contains(err.Error(), want) {
			t.Fatalf("seal after a tuple moved from bin %d to %d: err = %v, want the stale-index error %q", a, a+1, err, want)
		}
	})
}

// TestRunFailsOnInGroupMove is TestRunFailsOnBinOverflow with receive
// groups of several bins and the moved count kept inside one group: Run
// must return the stale-index error from seal's bin check.
func TestRunFailsOnInGroupMove(t *testing.T) {
	td := groupDataset(t, 9, 27)
	g := model.RecvGroupShift(len(td.idx.MerHist))
	idx, a := staleMoveIndex(t, td.idx, 1, 2, 1, func(a int) bool { return a>>g == (a+1)>>g })
	cfg := Default(idx)
	cfg.Tasks, cfg.Threads = 1, 2
	_, err := Run(cfg)
	// The check names the first bin whose predicted range is off: a (which
	// now ends one tuple early) or a+1.
	if !errors.Is(err, errStaleIndex) || !strings.Contains(err.Error(), fmt.Sprintf("bin %d does not hold", a)) &&
		!strings.Contains(err.Error(), fmt.Sprintf("bin %d does not hold", a+1)) {
		t.Fatalf("Run with a count moved from bin %d to %d: err = %v, want seal's stale-index error naming one of them", a, a+1, err)
	}
}

// TestGroupThreadCutParity runs two tasks of three threads at m = 6, whose
// receive groups hold several bins and whose thread cuts fall inside a
// group, so one thread sorts a group that the next thread's source starts
// in. Labels, the partitioned FASTQ and the .mpa's decoded kmers stream
// must equal the one-thread run's, at k = 27 and k = 55.
func TestGroupThreadCutParity(t *testing.T) {
	for _, k := range []int{27, 55} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			td := groupDataset(t, 17, k)
			// run returns the labels, the directory holding the run's
			// partition merged into lc.fastq and other.fastq (the per-thread
			// parts differ in number), and the artifact.
			run := func(threads int) (*Result, string, string) {
				dir := t.TempDir()
				cfg := Default(td.idx)
				cfg.Tasks, cfg.Threads = 2, threads
				cfg.OutDir = filepath.Join(dir, "parts")
				cfg.ArtifactOut = filepath.Join(dir, "p.mpa")
				if threads > 1 {
					requireCutInGroup(t, cfg)
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				merged := filepath.Join(dir, "merged")
				if err := os.Mkdir(merged, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := MergeLC(res, filepath.Join(merged, "lc.fastq"), filepath.Join(merged, "other.fastq")); err != nil {
					t.Fatal(err)
				}
				return res, merged, cfg.ArtifactOut
			}
			one, oneFastq, oneArt := run(1)
			three, threeFastq, threeArt := run(3)
			if !slicesEqualU32(one.Labels, three.Labels) {
				t.Fatal("labels differ between T = 1 and T = 3")
			}
			assertSameDirBytes(t, oneFastq, threeFastq)
			if kmerStreamHash(t, oneArt) != kmerStreamHash(t, threeArt) {
				t.Fatal("decoded kmers stream differs between T = 1 and T = 3")
			}
		})
	}
}

// requireCutInGroup asserts that some task's thread cut falls strictly
// inside one of its receive groups.
func requireCutInGroup(t *testing.T, cfg Config) {
	t.Helper()
	pl, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < cfg.Tasks; rank++ {
		lo, hi := pl.pt.TaskRange(0, rank)
		g := model.RecvGroupShift(hi - lo)
		for _, c := range pl.pt.ThreadCuts(0, rank) {
			if g > 0 && c > lo && c < hi && c>>g == (c-1)>>g {
				return
			}
		}
	}
	t.Fatal("no thread cut falls inside a receive group")
}
